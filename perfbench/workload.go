package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"freshcache/internal/workload"
	"freshcache/internal/xrand"
)

// Cluster shape shared by every workload.
const (
	staleBound   = 100 * time.Millisecond // T on every store and cache
	replicas     = 2                      // R
	numStores    = 2
	numCaches    = 2
	callers      = 16  // closed-loop read goroutines
	valueSize    = 128 // bytes per value
	probeKeys    = 64  // concurrent put→visible probes
	mgetSize     = 16  // keys per MGET in read-miss-batch
	preloadBatch = 256 // keys per MPUT while preloading
	// tick is the open-loop scheduling grid. While the process is
	// otherwise idle, Go's timers wake up to 1ms late here (the netpoller
	// waits in whole milliseconds), which on a finer grid makes the
	// generator alternate between waking on time and a tick late.
	tick = 5 * time.Millisecond
)

// spec is one named workload. Key indices [0, keys) are the workload's
// data keys; [keys, keys+probeKeys) are the probe keys every workload
// adds for put→visible measurement.
type spec struct {
	name string
	// keys is the preloaded keyspace; closed-loop readers draw from
	// [0, readKeys) with Zipf exponent zipf (0 = uniform), batch keys
	// per request (1 = GET, more = MGET).
	keys, readKeys int
	zipf           float64
	batch          int
	// capacity bounds each cache in objects (0 = unbounded).
	capacity int
	// Open-loop streams (per second): writes into the read-heavy range
	// [0, readKeys), and writes and reads of the write-heavy range
	// [readKeys, keys), all drawn with Zipf exponent mixZipf.
	hotWrites, coldWrites, coldReads float64
	mixZipf                          float64
}

// mixed reports whether the workload writes while it reads; the
// read-only workloads measure the write path in a tail after their
// read window.
func (s *spec) mixed() bool { return s.hotWrites+s.coldWrites > 0 }

// workloads are the benchmark's named workloads; BENCHMARK.json says
// why each was chosen.
func workloads() []*spec {
	mix := workload.DefaultMix(1, 0)
	const half = 5000
	// The write-heavy half is written and read open loop at
	// r/(1−r) reads per write, so its read ratio does not depend on how
	// fast the closed-loop readers of the read-heavy half run. 3000
	// writes/s keeps invalidates near a fifth of the pushed ops; at 1500
	// they fell to about 15%, close to the 10% validity gate.
	coldWrites := 3000.0
	return []*spec{
		{name: "read-hit", keys: 20000, readKeys: 20000, zipf: 0.99, batch: 1},
		{name: "read-miss-batch", keys: 200000, readKeys: 200000, batch: mgetSize, capacity: 20000},
		{
			name: "mixed-push",
			keys: 2 * half, readKeys: half, zipf: mix.Zipf, batch: 1,
			// The read-heavy half's r is 1000 writes/s against the
			// closed-loop reads: ≈0.95 at 19k reads/s, ≈0.97 at the
			// ~35k/s measured on a 2-vCPU VM.
			hotWrites:  1000,
			coldWrites: coldWrites,
			coldReads:  coldWrites * mix.WriteHeavyRatio / (1 - mix.WriteHeavyRatio),
			mixZipf:    mix.Zipf,
		},
	}
}

func findSpec(name string) (*spec, error) {
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// keyNames builds the key table: data keys then probe keys.
func keyNames(s *spec) []string {
	keys := make([]string, s.keys+probeKeys)
	for i := 0; i < s.keys; i++ {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	for p := 0; p < probeKeys; p++ {
		keys[s.keys+p] = fmt.Sprintf("probe%03d", p)
	}
	return keys
}

// sampler draws ranks in [0, n): Zipf with exponent s over a shared
// cumulative table, or uniform when s is 0.
type sampler struct {
	n   int
	cdf []float64
}

func newSampler(n int, s float64) *sampler {
	z := &sampler{n: n}
	if s == 0 {
		return z
	}
	z.cdf = make([]float64, n)
	var sum float64
	for i := range z.cdf {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.cdf[n-1] = 1
	return z
}

func (z *sampler) sample(rng *xrand.PCG) int {
	if z.cdf == nil {
		return rng.Intn(z.n)
	}
	u := rng.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Stream identifiers: each seeded stream draws from its own PCG
// sequence, so the op stream of one caller does not depend on how far
// the others got.
const (
	streamReader = 1
	streamOpen   = 100
	streamProbe  = 200
	streamTail   = 300
)

// readStream is one closed-loop caller's op stream: key indices, batch
// keys per op.
type readStream struct {
	rng  *xrand.PCG
	pick *sampler
	buf  []int
}

func (s *spec) readSampler() *sampler { return newSampler(s.readKeys, s.zipf) }

func (s *spec) readStream(pick *sampler, seed uint64, caller int) *readStream {
	return &readStream{
		rng:  xrand.New(seed, streamReader+uint64(caller)),
		pick: pick,
		buf:  make([]int, s.batch),
	}
}

// next returns the next op's key indices; the slice is reused.
func (r *readStream) next() []int {
	for i := range r.buf {
		r.buf[i] = r.pick.sample(r.rng)
	}
	return r.buf
}

// openOp is one open-loop operation.
type openOp struct {
	idx   int
	write bool
}

// openStream schedules the open-loop ops of a mixed workload on the
// tick grid: each class emits exactly rate·t ops by time t.
type openStream struct {
	s          *spec
	rng        *xrand.PCG
	hot, cold  *sampler
	classRates [3]float64
}

func (s *spec) openStream(seed uint64) *openStream {
	o := &openStream{s: s, rng: xrand.New(seed, streamOpen)}
	o.hot = newSampler(s.readKeys, s.mixZipf)
	o.cold = newSampler(s.keys-s.readKeys, s.mixZipf)
	o.classRates = [3]float64{s.hotWrites, s.coldWrites, s.coldReads}
	return o
}

// at appends the ops due at tick k to dst.
func (o *openStream) at(k int, dst []openOp) []openOp {
	perTick := float64(tick) / float64(time.Second)
	for class, rate := range o.classRates {
		n := int(math.Floor(rate*perTick*float64(k+1))) - int(math.Floor(rate*perTick*float64(k)))
		for j := 0; j < n; j++ {
			var op openOp
			switch class {
			case 0:
				op = openOp{idx: o.hot.sample(o.rng), write: true}
			case 1:
				op = openOp{idx: o.s.readKeys + o.cold.sample(o.rng), write: true}
			default:
				op = openOp{idx: o.s.readKeys + o.cold.sample(o.rng)}
			}
			dst = append(dst, op)
		}
	}
	return dst
}

// probeGaps draws probe p's gaps between visibility and its next put,
// uniform over [0, T) at microsecond resolution, so probes cannot
// phase-lock to the stores' flush ticker.
func probeGaps(seed uint64, p int) func() time.Duration {
	rng := xrand.New(seed, streamProbe+uint64(p))
	n := int(staleBound / time.Microsecond)
	return func() time.Duration { return time.Duration(rng.Intn(n)) * time.Microsecond }
}

// Values are valueSize bytes: "<key>#<seq>#" then filler that depends
// on seq, so a value proves which key and which write it came from.

func valueOf(key string, seq uint64) []byte {
	v := make([]byte, 0, valueSize)
	v = append(v, key...)
	v = append(v, '#')
	v = strconv.AppendUint(v, seq, 10)
	v = append(v, '#')
	for i := len(v); i < valueSize; i++ {
		v = append(v, fill(i, seq))
	}
	return v
}

func fill(i int, seq uint64) byte { return 'a' + byte((uint64(i)*7+seq)%26) }

// parseValue returns the write sequence a value encodes, and whether it
// is a well-formed value of key.
func parseValue(key string, v []byte) (uint64, bool) {
	n := len(key)
	if len(v) != valueSize || len(v) < n+3 || string(v[:n]) != key || v[n] != '#' {
		return 0, false
	}
	end := n + 1
	for end < len(v) && v[end] != '#' {
		end++
	}
	if end == len(v) || end == n+1 {
		return 0, false
	}
	var seq uint64
	for _, c := range v[n+1 : end] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	for i := end + 1; i < len(v); i++ {
		if v[i] != fill(i, seq) {
			return 0, false
		}
	}
	return seq, true
}
