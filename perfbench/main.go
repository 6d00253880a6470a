// Command perfbench is freshcache's end-to-end and per-layer benchmark.
//
// One run boots an in-process cluster — a coordinator, 2 stores at
// R=2, 2 caches and 1 LB, all with T=100ms — preloads and warms it,
// drives one named workload through the LB, checks every value read
// against a staleness oracle, and prints its metrics, the last line as
// one JSON object:
//
//	bash perfbench/run.sh --workload read-hit --seed 1 --seconds 24 --trace 0
//
// --workload all runs the three workloads in turn, each on its own
// cluster (cache capacity differs between them), prefixing each metric
// with its workload's name.
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run of the same workload and seed that traces every request through
// the wire trace block, replays the op stream against each tier
// directly (the ladder rungs) and times in-process calls into proto,
// kv, core and ring, yielding the per-layer metrics. The run exits
// nonzero on any failed or wrong read, on any read staler than T plus
// deliverySlack, and when the workload did not exercise the layers it
// is meant to.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"freshcache"
)

// rounds is how often a run boots, preloads and warms a cluster.
const rounds = 5

// tailShare is the share of each round a read-only workload spends on
// its write tail.
const tailShare = 0.3

func main() {
	var (
		name    = flag.String("workload", "", "workload: read-hit, read-miss-batch, mixed-push, or all three in turn")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 24, "measured seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository root, for the run metadata")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

func run(name string, seed uint64, dur time.Duration, traced bool, root string) error {
	if dur < 4*time.Second {
		return fmt.Errorf("--seconds must be at least 4")
	}
	specs := workloads()
	if name != "all" {
		s, err := findSpec(name)
		if err != nil {
			return err
		}
		specs = []*spec{s}
	}
	var (
		all               []metric
		problems          []string
		attempted, failed int64
	)
	for _, s := range specs {
		r, err := runWorkload(s, seed, dur, traced, root)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for _, m := range r.metrics {
			if len(specs) > 1 {
				m.name = s.name + "." + m.name
			}
			all = append(all, m)
		}
		for _, p := range r.problems {
			problems = append(problems, s.name+": "+p)
		}
		attempted += r.attempted
		failed += r.failed
	}
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   jsonMetrics(all),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		os.Exit(2)
	}
	return nil
}

// result is one workload's measurement.
type result struct {
	metrics           []metric
	problems          []string
	attempted, failed int64
}

// runWorkload measures s and prints every metric by name with its
// unit. An end-to-end run boots, preloads and warms a cluster rounds
// times, measures each for dur/rounds in windows time windows, and
// reports for every metric the median over all windows of all rounds:
// on a saturated 2-CPU box one cluster's numbers can sit 10–20% off for
// its whole lifetime, so the windows come from several clusters, and a
// load burst from outside the benchmark moves only the windows it
// covers. A traced run measures the last of rounds setups for the whole
// dur. setup_s is the median setup time.
func runWorkload(s *spec, seed uint64, dur time.Duration, traced bool, root string) (result, error) {
	meta, err := json.Marshal(metadata(s, seed, dur, traced, root))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("meta %s\n", meta)

	keys := keyNames(s)
	pick := s.readSampler()
	var (
		r      result
		setups []float64
		perWin [][]metric
		t      tally
	)
	for i := 0; i < rounds; i++ {
		runtime.GC()
		start := time.Now()
		e, err := setup(s, seed, keys, pick)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		var problems []string
		switch {
		case !traced:
			var ms [][]metric
			ms, problems = endToEnd(e, dur/rounds)
			perWin = append(perWin, ms...)
		case i == rounds-1:
			r.metrics, problems = perLayer(e, dur)
		}
		e.close()
		r.problems = append(r.problems, problems...)
		t.add(&e.tally)
	}
	if !traced {
		r.metrics = []metric{{"setup_s", "s", median(setups)}}
		for j, m := range perWin[0] {
			var vs []float64
			for _, ms := range perWin {
				vs = append(vs, ms[j].value)
			}
			m.value = median(vs)
			r.metrics = append(r.metrics, m)
		}
	}
	r.attempted, r.failed = t.attempted.Load(), t.failed.Load()
	for _, m := range r.metrics {
		fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	// stale_reads is the strict count (older than a write acknowledged
	// before invoke−T); only reads past T+deliverySlack fail the run.
	fmt.Printf("%-28s %14d %s\n", "stale_reads", t.lateReads.Load(), "count")
	fmt.Printf("%-28s %14.4f %s\n", "stale_max_over_t_ms", float64(t.maxOver.Load())/1e6, "ms")
	fmt.Printf("%-28s %14d %s\n", "stale_reads_past_slack", t.stale.Load(), "count")
	fmt.Printf("%-28s %14.6f %s\n", "error_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d ops failed (%d reads staler than T+%v)",
			r.failed, r.attempted, t.stale.Load(), deliverySlack))
	}
	return r, nil
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// setup boots a cluster, preloads every key with MPUT batches through
// the LB, waits 2T for the preload's pushes to land, and warms the
// caches with one MGET pass over every key. A mixed workload then
// replays warmSchedule of its open-loop stream unpaced, so the stores'
// per-key write/read statistics have left their preload state (where
// every key looks read-heavy and is pushed as an update) before the
// measurement starts.
func setup(s *spec, seed uint64, keys []string, pick *sampler) (*env, error) {
	cl, err := bootCluster(s.capacity)
	if err != nil {
		return nil, err
	}
	e := &env{
		s: s, seed: seed, keys: keys, pick: pick, cl: cl,
		tr: newTruth(len(keys), staleBound),
		rd: freshcache.NewClient(cl.lbAddr, freshcache.ClientOptions{}),
		wr: freshcache.NewClient(cl.lbAddr, freshcache.ClientOptions{}),
	}
	if err := e.preload(); err != nil {
		e.close()
		return nil, err
	}
	time.Sleep(2 * staleBound)
	names := make([]string, preloadBatch)
	idxs := make([]int, 0, preloadBatch)
	for lo := 0; lo < len(keys); lo += preloadBatch {
		idxs = idxs[:0]
		for i := lo; i < min(lo+preloadBatch, len(keys)); i++ {
			idxs = append(idxs, i)
		}
		if e.read(lbTarget{c: e.rd}, idxs, names) {
			e.close()
			return nil, fmt.Errorf("warm pass: read of keys %d..%d failed", lo, lo+len(idxs)-1)
		}
	}
	if s.mixed() {
		o := s.openStream(seed)
		var ops []openOp
		for k := 0; k < int(warmSchedule/tick); k++ {
			ops = o.at(k, ops[:0])
			if e.run(ops, nil, nil, time.Time{}) {
				e.close()
				return nil, fmt.Errorf("warm replay: tick %d failed", k)
			}
		}
	}
	return e, nil
}

// warmSchedule is how much of a mixed workload's open-loop schedule its
// setup replays.
const warmSchedule = time.Second

func (e *env) preload() error {
	for lo := 0; lo < len(e.keys); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(e.keys))
		names := e.keys[lo:hi]
		vals := make([][]byte, len(names))
		for i := range names {
			vals[i] = valueOf(names[i], e.tr.nextSeq(lo+i))
		}
		res, err := e.wr.MPut(names, vals)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if len(res) != len(names) {
			return fmt.Errorf("preload: %d results for %d keys", len(res), len(names))
		}
		at := time.Now()
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("preload %s: %w", names[i], r.Err)
			}
			e.tr.record(lo+i, 0, r.Version, at)
		}
	}
	return nil
}

// endToEnd measures one round of the end-to-end metrics, untraced, and
// returns them per time window. A mixed workload reads and writes for
// the whole round; a read-only workload reads, and then spends
// tailShare of the round measuring its write path, the window i of
// which pairs with read window i.
func endToEnd(e *env, dur time.Duration) ([][]metric, []string) {
	loadDur, tailDur := dur, time.Duration(0)
	if !e.s.mixed() {
		tailDur = time.Duration(tailShare * float64(dur))
		loadDur -= tailDur
	}
	settle()
	c0 := e.cl.counters()
	rr, wr := e.loaded(loadDur, nil)
	c1 := e.cl.counters()
	if !e.s.mixed() {
		settle()
		wr = e.tail(tailDur, nil)
	}
	c2 := e.cl.counters()
	var ms [][]metric
	for i := range windows {
		ms = append(ms, []metric{
			{"read_keys_s", "keys/s", rr.keyRate(i)},
			{"read_p50_us", "us", us(pct(rr.lat[i], 0.5))},
			{"read_p90_us", "us", us(pct(rr.lat[i], 0.9))},
			{"write_p50_us", "us", us(pct(wr.writeLat[i], 0.5))},
			{"write_p90_us", "us", us(pct(wr.writeLat[i], 0.9))},
			{"visible_p50_ms", "ms", us(pct(wr.visible[i], 0.5)) / 1e3},
			{"visible_p90_ms", "ms", us(pct(wr.visible[i], 0.9)) / 1e3},
		})
	}
	reads, writes := rr.lat.all(), wr.writeLat.all()
	fmt.Printf("round: %d reads %.0f keys/s p50 %v p90 %v; %d writes p50 %v p90 %v; %d visible samples\n",
		len(reads), float64(rr.keys)/rr.dur.Seconds(), pct(reads, 0.5), pct(reads, 0.9),
		len(writes), pct(writes, 0.5), pct(writes, 0.9), len(wr.visible.all()))
	return ms, e.validate(c0, c1, c2)
}

// settle starts a measured phase from a quiet cluster: the previous
// phase's pushes delivered (2T) and its garbage collected, so neither
// lands in the next phase's numbers.
func settle() {
	time.Sleep(2 * staleBound)
	runtime.GC()
}

// validate checks that the measured window exercised what the workload
// claims to and that no failure machinery ran: c0..c1 is the read
// window, c0..c2 the whole measurement.
func (e *env) validate(c0, c1, c2 counters) []string {
	var problems []string
	gets := delta(c0, c1, "cache", "gets")
	hit := delta(c0, c1, "cache", "hits") / max(gets, 1)
	switch e.s.name {
	case "read-hit":
		if hit < 0.99 {
			problems = append(problems, fmt.Sprintf("read-hit: cache hit ratio %.4f < 0.99", hit))
		}
	case "read-miss-batch":
		if hit > 0.5 {
			problems = append(problems, fmt.Sprintf("read-miss-batch: cache hit ratio %.4f > 0.5", hit))
		}
	}
	if e.s.mixed() {
		upd := delta(c0, c2, "store", "updates_sent")
		inv := delta(c0, c2, "store", "invalidates_sent")
		if upd < 0.1*(upd+inv) || inv < 0.1*(upd+inv) || upd+inv == 0 {
			problems = append(problems, fmt.Sprintf("mixed-push: %v updates and %v invalidates pushed, each must be ≥10%%", upd, inv))
		}
	}
	for _, rk := range [][2]string{
		{"cache", "resyncs"}, {"cache", "epoch_gaps"}, {"cache", "ring_swaps"},
		{"cache", "failovers"}, {"lb", "failovers"}, {"store", "subscribers_dropped"},
		{"store", "ring_epoch"}, {"lb", "ring_epoch"},
	} {
		if d := delta(c0, c2, rk[0], rk[1]); d != 0 {
			problems = append(problems, fmt.Sprintf("%s %s changed by %v during the run", rk[0], rk[1], d))
		}
	}
	return problems
}

// pct returns the q-quantile of ds (nearest rank); 0 for no samples.
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	return s[min(i, len(s)-1)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metadata records what a result depends on besides the code: the
// machine, the toolchain, the source and the workload's parameters.
func metadata(s *spec, seed uint64, dur time.Duration, traced bool, root string) map[string]any {
	return map[string]any{
		"workload": s.name, "seed": seed, "seconds": dur.Seconds(), "trace": traced,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(root), "source_sha256": sourceDigest(root),
		"t_ms": staleBound.Milliseconds(), "replicas": replicas, "stores": numStores, "caches": numCaches,
		"keys": s.keys, "read_keys": s.readKeys, "probe_keys": probeKeys, "callers": callers,
		"batch": s.batch, "cache_capacity": s.capacity, "value_bytes": valueSize,
		"rounds": rounds, "windows": windows, "tail_share": tailShare,
		"open_loop_per_s": map[string]float64{"hot_writes": s.hotWrites, "cold_writes": s.coldWrites, "cold_reads": s.coldReads},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git HEAD, or "unknown" outside a git
// checkout of its own.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the root module's Go sources and go.mod, which
// identifies the code measured when the checkout has no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
