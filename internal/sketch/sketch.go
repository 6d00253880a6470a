// Package sketch implements the per-key read/write frequency trackers of
// §3.3 of the paper, used to estimate E[W] — the expected number of writes
// between two consecutive reads of a key — which drives the adaptive
// update-vs-invalidate decision (update iff E[W]·c_u < c_m + c_i).
//
// Three implementations are provided, matching Figure 6:
//
//   - Exact: three exact counters per key (C1 = sum of writes-between-reads
//     samples, C2 = number of samples, C3 = current write run length).
//     Highest accuracy, O(keys) memory.
//   - CountMin: two count-min sketches (reads, writes); E[W] is estimated
//     as writes/reads. Constant memory, one-sided overestimation error.
//   - TopK: exact counters for the K hottest keys plus a CountMin tail,
//     with promotion and demotion as keys heat and cool. Near-exact for
//     hot keys at a fraction of Exact's memory.
//
// All trackers share the Tracker interface and operate on uint64 key
// identities; use Hash to fold string keys.
package sketch

import (
	"errors"
	"fmt"
	"math"

	"freshcache/internal/xrand"
)

// Tracker estimates per-key E[W] from an observed read/write stream.
// Implementations need not be safe for concurrent use; wrap with a mutex
// (see Locked) when sharing across goroutines.
type Tracker interface {
	// ObserveRead records a read of key.
	ObserveRead(key uint64)
	// ObserveReadN records n consecutive reads of key in O(1): any open
	// write run is folded into the E[W] estimate once and the remaining
	// n−1 reads contribute zero-write samples. Count-equivalent to n
	// ObserveRead calls, up to sketch-internal placement (TopK decides
	// promotion once per burst instead of once per event). This is the
	// bulk path behind read-report ingestion, where a cache reports
	// per-key counts up to 2^16 at a time.
	ObserveReadN(key uint64, n uint64)
	// ObserveWrite records a write of key.
	ObserveWrite(key uint64)
	// ObserveWriteN records n consecutive writes of key (one write run
	// extended by n) in O(1); same equivalence caveat as ObserveReadN.
	ObserveWriteN(key uint64, n uint64)
	// EW returns the estimated mean number of writes between consecutive
	// reads of key. With no read observations it returns the neutral
	// prior DefaultEW.
	EW(key uint64) float64
	// Reads and Writes return the (possibly approximate) event counts.
	Reads(key uint64) uint64
	Writes(key uint64) uint64
	// Bytes returns the approximate resident memory footprint.
	Bytes() int
	// Reset forgets all observations.
	Reset()
	// Name identifies the tracker in reports ("exact", "count-min", "top-k").
	Name() string
}

// DefaultEW is the neutral prior returned before any reads are observed:
// one write per read keeps the decision rule conservative (it compares
// c_u against c_m + c_i directly).
const DefaultEW = 1.0

// Hash folds a key to the uint64 identity space using FNV-1a. It takes
// the key as a string or as raw bytes, so a router can hash a key it
// has not copied out of a frame.
func Hash[K ~string | ~[]byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// exactCell holds the paper's three counters for one key.
type exactCell struct {
	c1 uint64 // sum of writes-between-reads samples
	c2 uint64 // number of samples (reads observed)
	c3 uint64 // writes since the last read
	r  uint64 // total reads (= c2; kept for interface symmetry)
	w  uint64 // total writes
}

// Exact tracks every key with exact counters. Memory grows linearly with
// the number of distinct keys (the overhead the paper calls "prohibitively
// expensive in practice" — it is the accuracy baseline in Figure 6).
type Exact struct {
	m map[uint64]*exactCell
}

// NewExact returns an empty exact tracker.
func NewExact() *Exact { return &Exact{m: make(map[uint64]*exactCell)} }

// Name implements Tracker.
func (e *Exact) Name() string { return "exact" }

func (e *Exact) cell(key uint64) *exactCell {
	c := e.m[key]
	if c == nil {
		c = &exactCell{}
		e.m[key] = c
	}
	return c
}

// ObserveRead implements Tracker: the current write-run length C3 is
// folded into the running E[W] sample mean (C1/C2) and reset.
func (e *Exact) ObserveRead(key uint64) {
	c := e.cell(key)
	c.c1 += c.c3
	c.c2++
	c.c3 = 0
	c.r++
}

// ObserveReadN implements Tracker: the open write run is folded in as
// one sample; the remaining n−1 reads are zero-write samples.
func (e *Exact) ObserveReadN(key, n uint64) {
	if n == 0 {
		return
	}
	c := e.cell(key)
	c.c1 += c.c3
	c.c3 = 0
	c.c2 += n
	c.r += n
}

// ObserveWrite implements Tracker.
func (e *Exact) ObserveWrite(key uint64) {
	c := e.cell(key)
	c.c3++
	c.w++
}

// ObserveWriteN implements Tracker.
func (e *Exact) ObserveWriteN(key, n uint64) {
	if n == 0 {
		return
	}
	c := e.cell(key)
	c.c3 += n
	c.w += n
}

// ewOf estimates E[W] from the three counters. An open write run (C3 > 0)
// is folded in as a pending sample — (C1+C3)/(C2+1) — so keys that are
// written but never (or no longer) read see their estimate grow with the
// run instead of being pinned at the stale mean; this is what lets the
// decision rule flip a write-only key to invalidation.
func ewOf(c1, c2, c3 uint64) float64 {
	if c3 > 0 {
		return float64(c1+c3) / float64(c2+1)
	}
	if c2 == 0 {
		return DefaultEW
	}
	return float64(c1) / float64(c2)
}

// EW implements Tracker.
func (e *Exact) EW(key uint64) float64 {
	c := e.m[key]
	if c == nil {
		return DefaultEW
	}
	return ewOf(c.c1, c.c2, c.c3)
}

// Reads implements Tracker.
func (e *Exact) Reads(key uint64) uint64 {
	if c := e.m[key]; c != nil {
		return c.r
	}
	return 0
}

// Writes implements Tracker.
func (e *Exact) Writes(key uint64) uint64 {
	if c := e.m[key]; c != nil {
		return c.w
	}
	return 0
}

// Bytes implements Tracker. Map overhead is approximated at 48 bytes per
// entry (bucket + pointer) plus the 40-byte cell.
func (e *Exact) Bytes() int { return len(e.m) * (48 + 40) }

// Reset implements Tracker.
func (e *Exact) Reset() { e.m = make(map[uint64]*exactCell) }

// Keys returns the number of distinct keys observed.
func (e *Exact) Keys() int { return len(e.m) }

// CountMin approximates read and write counts for every key in fixed
// memory using two d×w count-min sketches. Estimates overcount but never
// undercount; E[W] = writes/reads so its error can go either way, which is
// the inaccuracy Figure 6b reports.
type CountMin struct {
	w, d  int
	reads []uint32
	wrts  []uint32
	seeds []uint64
}

// ErrBadShape reports an invalid sketch geometry.
var ErrBadShape = errors.New("sketch: width and depth must be positive")

// NewCountMin builds a count-min tracker with the given width (columns per
// row) and depth (rows / hash functions).
func NewCountMin(width, depth int) (*CountMin, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("%w: width=%d depth=%d", ErrBadShape, width, depth)
	}
	cm := &CountMin{
		w:     width,
		d:     depth,
		reads: make([]uint32, width*depth),
		wrts:  make([]uint32, width*depth),
		seeds: make([]uint64, depth),
	}
	for i := range cm.seeds {
		cm.seeds[i] = xrand.SplitMix64(uint64(i)+0x9E37) | 1
	}
	return cm, nil
}

// MustCountMin is NewCountMin that panics on bad geometry; for use in
// composite literals and tests.
func MustCountMin(width, depth int) *CountMin {
	cm, err := NewCountMin(width, depth)
	if err != nil {
		panic(err)
	}
	return cm
}

// Name implements Tracker.
func (cm *CountMin) Name() string { return "count-min" }

func (cm *CountMin) idx(row int, key uint64) int {
	h := xrand.SplitMix64(key ^ cm.seeds[row])
	return row*cm.w + int(h%uint64(cm.w))
}

func addSat(p *uint32) {
	if *p != math.MaxUint32 {
		*p++
	}
}

func addSatN(p *uint32, n uint64) {
	if n >= math.MaxUint32-uint64(*p) {
		*p = math.MaxUint32
	} else {
		*p += uint32(n)
	}
}

// ObserveRead implements Tracker.
func (cm *CountMin) ObserveRead(key uint64) {
	for r := 0; r < cm.d; r++ {
		addSat(&cm.reads[cm.idx(r, key)])
	}
}

// ObserveReadN implements Tracker.
func (cm *CountMin) ObserveReadN(key, n uint64) {
	for r := 0; r < cm.d; r++ {
		addSatN(&cm.reads[cm.idx(r, key)], n)
	}
}

// ObserveWrite implements Tracker.
func (cm *CountMin) ObserveWrite(key uint64) {
	for r := 0; r < cm.d; r++ {
		addSat(&cm.wrts[cm.idx(r, key)])
	}
}

// ObserveWriteN implements Tracker.
func (cm *CountMin) ObserveWriteN(key, n uint64) {
	for r := 0; r < cm.d; r++ {
		addSatN(&cm.wrts[cm.idx(r, key)], n)
	}
}

func (cm *CountMin) est(tab []uint32, key uint64) uint64 {
	min := uint32(math.MaxUint32)
	for r := 0; r < cm.d; r++ {
		if v := tab[cm.idx(r, key)]; v < min {
			min = v
		}
	}
	return uint64(min)
}

// Reads implements Tracker (an overestimate under collisions).
func (cm *CountMin) Reads(key uint64) uint64 { return cm.est(cm.reads, key) }

// Writes implements Tracker (an overestimate under collisions).
func (cm *CountMin) Writes(key uint64) uint64 { return cm.est(cm.wrts, key) }

// EW implements Tracker: estimated writes divided by estimated reads.
// With no reads yet the write count itself is the best available lower
// bound on E[W] (matching Exact's open-run behavior).
func (cm *CountMin) EW(key uint64) float64 {
	r := cm.Reads(key)
	w := cm.Writes(key)
	if r == 0 {
		if w == 0 {
			return DefaultEW
		}
		return float64(w)
	}
	return float64(w) / float64(r)
}

// Bytes implements Tracker.
func (cm *CountMin) Bytes() int { return cm.w*cm.d*4*2 + cm.d*8 }

// Reset implements Tracker.
func (cm *CountMin) Reset() {
	for i := range cm.reads {
		cm.reads[i] = 0
	}
	for i := range cm.wrts {
		cm.wrts[i] = 0
	}
}
