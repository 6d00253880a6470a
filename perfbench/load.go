package main

import (
	"sync"
	"sync/atomic"
	"time"

	"freshcache"
	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// env is one booted, preloaded and warmed cluster plus the benchmark's
// two load connections: one mux client for reads, one for writes.
type env struct {
	s     *spec
	seed  uint64
	keys  []string
	tr    *truth
	cl    *cluster
	rd    *freshcache.Client
	wr    *freshcache.Client
	pick  *sampler
	tally tally
}

// tally counts checked operations. An op fails when it errors, returns
// a wrong value or a wrong-length MGET, or returns a stale version.
type tally struct {
	attempted, failed atomic.Int64
	// lateReads counts reads older than a write acknowledged before
	// invoke−T, stale those of them past T+deliverySlack; maxOver is
	// the worst distance past T in nanoseconds.
	lateReads, stale, maxOver atomic.Int64
}

// add folds o's counts into t.
func (t *tally) add(o *tally) {
	t.attempted.Add(o.attempted.Load())
	t.failed.Add(o.failed.Load())
	t.lateReads.Add(o.lateReads.Load())
	t.stale.Add(o.stale.Load())
	t.raiseMax(time.Duration(o.maxOver.Load()))
}

func (t *tally) late(over time.Duration) {
	t.lateReads.Add(1)
	t.raiseMax(over)
}

func (t *tally) raiseMax(over time.Duration) {
	for {
		cur := t.maxOver.Load()
		if int64(over) <= cur || t.maxOver.CompareAndSwap(cur, int64(over)) {
			return
		}
	}
}

func (t *tally) op(failed bool) {
	t.attempted.Add(1)
	if failed {
		t.failed.Add(1)
	}
}

func (e *env) close() {
	e.rd.Close()
	e.wr.Close()
	e.cl.close()
}

// readTarget is the server a read goes to: the LB (the end-to-end
// path) or, for the ladder rungs, the caches or stores directly.
type readTarget interface {
	get(key string) ([]byte, uint64, error)
	mget(keys []string) ([]client.MGetResult, error)
}

// lbTarget reads through the LB; with spans set every read is traced
// and its hop tree recorded.
type lbTarget struct {
	c     *freshcache.Client
	spans *spanStats
}

var traceIDs atomic.Uint64

func (t lbTarget) get(key string) ([]byte, uint64, error) {
	if t.spans == nil {
		return t.c.Get(key)
	}
	start := time.Now()
	v, ver, tr, err := t.c.GetTraced(key, traceIDs.Add(1))
	t.spans.add(tr, time.Since(start))
	return v, ver, err
}

func (t lbTarget) mget(keys []string) ([]client.MGetResult, error) {
	if t.spans == nil {
		return t.c.MGet(keys)
	}
	start := time.Now()
	res, tr, err := t.c.MGetTraced(keys, traceIDs.Add(1))
	t.spans.add(tr, time.Since(start))
	return res, err
}

// shardTarget reads straight from a ring of caches or stores, routing
// each key the way the tier above would.
type shardTarget struct{ c *client.Sharded }

func (t shardTarget) get(key string) ([]byte, uint64, error) { return t.c.Get(key) }
func (t shardTarget) mget(keys []string) ([]client.MGetResult, error) {
	return t.c.MGet(keys), nil
}

// read performs one read op of key indices idxs on t and checks every
// returned value. It reports whether the op failed.
func (e *env) read(t readTarget, idxs []int, names []string) bool {
	names = names[:len(idxs)]
	for i, idx := range idxs {
		names[i] = e.keys[idx]
	}
	invoked := time.Now()
	if len(idxs) == 1 {
		v, ver, err := t.get(names[0])
		if err != nil {
			return true
		}
		return e.judge(idxs[0], v, ver, invoked)
	}
	res, err := t.mget(names)
	if err != nil || len(res) != len(idxs) {
		return true
	}
	failed := false
	for i, r := range res {
		if r.Err != nil || !r.Found {
			failed = true
			continue
		}
		// The value names its key, so a reordered MGET fails here.
		if e.judge(idxs[i], r.Value, r.Version, invoked) {
			failed = true
		}
	}
	return failed
}

// judge checks one returned key against the oracle; true means failed.
func (e *env) judge(idx int, v []byte, ver uint64, invoked time.Time) bool {
	verdict, over := e.tr.check(idx, e.keys[idx], v, ver, invoked)
	switch verdict {
	case readStale:
		e.tally.late(over)
		e.tally.stale.Add(1)
		return true
	case readLate:
		e.tally.late(over)
	case readWrong:
		return true
	}
	return false
}

// windows is how many equal time windows a measured phase is split
// into. An end-to-end run reports the median over every window of every
// round, so a burst of load from outside the benchmark moves the few
// windows it covers, not the reported value.
const windows = 4

// byWindow holds a phase's samples by the window they completed in.
type byWindow [windows][]time.Duration

func (b *byWindow) all() []time.Duration {
	var out []time.Duration
	for _, w := range b {
		out = append(out, w...)
	}
	return out
}

// clock maps the instants of a phase of length dur to its windows.
type clock struct {
	start time.Time
	width time.Duration
}

func newClock(dur time.Duration) clock {
	return clock{start: time.Now(), width: max(dur/windows, 1)}
}

// window returns the window t falls in; samples completing after the
// phase's end count in its last window.
func (c clock) window(t time.Time) int {
	return min(max(int(t.Sub(c.start)/c.width), 0), windows-1)
}

// readRes is one closed-loop read phase.
type readRes struct {
	lat     byWindow
	keys    int64
	winKeys [windows]int64
	ops     int64
	dur     time.Duration
	clk     clock
}

// keyRate returns the keys per second served in window i; the last
// window runs until the last caller returned.
func (r *readRes) keyRate(i int) float64 {
	d := r.clk.width
	if i == windows-1 {
		d = r.dur - (windows-1)*r.clk.width
	}
	return float64(r.winKeys[i]) / d.Seconds()
}

// closedLoop runs n callers against t for dur, each replaying its own
// seeded op stream and issuing the next op when the previous returns.
func (e *env) closedLoop(t readTarget, n int, dur time.Duration) readRes {
	per := make([]readRes, n)
	var wg sync.WaitGroup
	clk := newClock(dur)
	end := clk.start.Add(dur)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(r *readRes) {
			defer wg.Done()
			st := e.s.readStream(e.pick, e.seed, c)
			names := make([]string, e.s.batch)
			for time.Now().Before(end) {
				idxs := st.next()
				t0 := time.Now()
				failed := e.read(t, idxs, names)
				t1 := time.Now()
				w := clk.window(t1)
				r.lat[w] = append(r.lat[w], t1.Sub(t0))
				e.tally.op(failed)
				if !failed {
					r.winKeys[w] += int64(len(idxs))
				}
				r.ops++
			}
		}(&per[c])
	}
	wg.Wait()
	res := readRes{dur: time.Since(clk.start), clk: clk}
	for _, r := range per {
		for w := range windows {
			res.lat[w] = append(res.lat[w], r.lat[w]...)
			res.winKeys[w] += r.winKeys[w]
			res.keys += r.winKeys[w]
		}
		res.ops += r.ops
	}
	return res
}

// writeRes is one phase of writes and put→visible probes.
type writeRes struct {
	writeLat byWindow // ack time minus when the write was due (its invoke time in a closed loop)
	visible  byWindow // probe put invoke until a read shows it
	late     byWindow // how late the open-loop ticks and probe puts ran
	dur      time.Duration
}

type writeCollector struct {
	mu  sync.Mutex
	clk clock
	writeRes
}

func newWriteCollector(dur time.Duration) *writeCollector {
	return &writeCollector{clk: newClock(dur), writeRes: writeRes{dur: dur}}
}

// add records d, completed at at, in its window of dst.
func (w *writeCollector) add(dst *byWindow, at time.Time, d time.Duration) {
	i := w.clk.window(at)
	w.mu.Lock()
	dst[i] = append(dst[i], d)
	w.mu.Unlock()
}

// put writes a fresh value of key idx through the LB and records the
// ack with the oracle.
func (e *env) put(idx int, spans *spanStats) (uint64, time.Time, error) {
	seq := e.tr.nextSeq(idx)
	key := e.keys[idx]
	v := valueOf(key, seq)
	var (
		ver uint64
		err error
	)
	if spans == nil {
		ver, err = e.wr.Put(key, v)
	} else {
		start := time.Now()
		var tr *proto.Trace
		ver, tr, err = e.wr.PutTraced(key, v, traceIDs.Add(1))
		spans.add(tr, time.Since(start))
	}
	at := time.Now()
	if err == nil {
		e.tr.record(idx, seq, ver, at)
	}
	return ver, at, err
}

// sleepUntil sleeps until t and returns how late it woke.
func sleepUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return time.Since(t)
}

// openLoop issues the workload's open-loop stream on the tick grid
// until end, each tick's ops concurrently and without waiting for the
// previous tick's, so a slow op never delays the schedule; write latency
// counts from the tick the write was due.
func (e *env) openLoop(o *openStream, end time.Time, spans *spanStats, wc *writeCollector) {
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * tick)
		if !due.Before(end) {
			break
		}
		late := sleepUntil(due)
		wc.add(&wc.late, time.Now(), late)
		batch := o.at(k, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.run(batch, spans, wc, due)
		}()
	}
	wg.Wait()
}

// run performs ops concurrently through the LB, checks them, and
// reports whether any failed; with wc set, each write's latency from
// due is recorded.
func (e *env) run(ops []openOp, spans *spanStats, wc *writeCollector, due time.Time) bool {
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, op := range ops {
		wg.Add(1)
		go func(op openOp) {
			defer wg.Done()
			var bad bool
			if op.write {
				_, at, err := e.put(op.idx, spans)
				bad = err != nil
				if wc != nil && !bad {
					wc.add(&wc.writeLat, at, at.Sub(due))
				}
			} else {
				var names [1]string
				bad = e.read(lbTarget{c: e.rd, spans: spans}, []int{op.idx}, names[:])
			}
			e.tally.op(bad)
			if bad {
				failed.Store(true)
			}
		}(op)
	}
	wg.Wait()
	return failed.Load()
}

// probeWait is one probe put awaiting visibility through the LB.
type probeWait struct {
	version uint64
	seen    chan time.Time
}

// probes runs probeKeys concurrent put→visible probes until end. Each
// probe waits a seeded random gap in [0, T), puts a new version of its
// own key, and waits until a read through the LB returns it; one
// poller reads every awaited key with one MGET per pollEvery.
func (e *env) probes(end time.Time, spans *spanStats, wc *writeCollector) {
	var (
		mu      sync.Mutex
		pending = map[int]*probeWait{}
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		polled  = make(chan struct{})
	)
	go func() {
		defer close(polled)
		e.poll(&mu, pending, stop, spans)
	}()
	start := time.Now()
	for p := 0; p < probeKeys; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			idx := e.s.keys + p
			gap := probeGaps(e.seed, p)
			last := start
			for {
				due := last.Add(gap())
				if !due.Before(end) {
					return
				}
				late := sleepUntil(due)
				wc.add(&wc.late, time.Now(), late)
				invoked := time.Now()
				ver, at, err := e.put(idx, spans)
				e.tally.op(err != nil)
				if err != nil {
					last = at
					continue
				}
				w := &probeWait{version: ver, seen: make(chan time.Time, 1)}
				mu.Lock()
				pending[idx] = w
				mu.Unlock()
				select {
				case seen := <-w.seen:
					wc.add(&wc.visible, seen, seen.Sub(invoked))
					last = seen
				case <-time.After(time.Until(end) + 10*staleBound):
					// Never became visible: the oracle flags the stale
					// reads the poller made meanwhile.
					mu.Lock()
					delete(pending, idx)
					mu.Unlock()
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	<-polled
}

// pollEvery paces the probe poller; it bounds the resolution of the
// put→visible lag.
const pollEvery = 2 * time.Millisecond

// poll reads every awaited probe key through the LB once per pollEvery and
// releases the probes whose version became visible.
func (e *env) poll(mu *sync.Mutex, pending map[int]*probeWait, stop chan struct{}, spans *spanStats) {
	t := lbTarget{c: e.rd, spans: spans}
	ticker := time.NewTicker(pollEvery)
	defer ticker.Stop()
	var idxs []int
	var names []string
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		idxs = idxs[:0]
		mu.Lock()
		for idx := range pending {
			idxs = append(idxs, idx)
		}
		mu.Unlock()
		if len(idxs) == 0 {
			continue
		}
		for len(names) < len(idxs) {
			names = append(names, "")
		}
		for i, idx := range idxs {
			names[i] = e.keys[idx]
		}
		invoked := time.Now()
		res, err := t.mget(names[:len(idxs)])
		seen := time.Now()
		failed := err != nil || len(res) != len(idxs)
		if !failed {
			mu.Lock()
			for i, r := range res {
				if r.Err != nil || !r.Found || e.judge(idxs[i], r.Value, r.Version, invoked) {
					failed = true
					continue
				}
				if w := pending[idxs[i]]; w != nil && r.Version >= w.version {
					w.seen <- seen
					delete(pending, idxs[i])
				}
			}
			mu.Unlock()
		}
		e.tally.op(failed)
	}
}

// loaded runs the workload's measured load shape for dur: the
// closed-loop readers through the LB and, for a mixed workload, the
// open-loop stream and the probes alongside them.
func (e *env) loaded(dur time.Duration, spans *spanStats) (readRes, writeRes) {
	wc := newWriteCollector(dur)
	var wg sync.WaitGroup
	if e.s.mixed() {
		end := time.Now().Add(dur)
		wg.Add(2)
		go func() { defer wg.Done(); e.openLoop(e.s.openStream(e.seed), end, spans, wc) }()
		go func() { defer wg.Done(); e.probes(end, spans, wc) }()
	}
	rr := e.closedLoop(lbTarget{c: e.rd, spans: spans}, callers, dur)
	wg.Wait()
	return rr, wc.writeRes
}

// tail measures the write path of a read-only workload after its read
// window: one closed-loop writer putting the workload's tail write
// stream through the LB, back to back, with the probes alongside. With
// no other load the process idles between ops, and Go's timers then
// wake up to 1ms late here; an open-loop tail would mostly time that.
func (e *env) tail(dur time.Duration, spans *spanStats) writeRes {
	wc := newWriteCollector(dur)
	end := time.Now().Add(dur)
	idxs := e.writeSample(sampleOps)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(end); i++ {
			invoked := time.Now()
			_, at, err := e.put(idxs[i%len(idxs)], spans)
			e.tally.op(err != nil)
			if err == nil {
				wc.add(&wc.writeLat, at, at.Sub(invoked))
			}
		}
	}()
	e.probes(end, spans, wc)
	wg.Wait()
	return wc.writeRes
}
