// Package oracle checks the bounded-staleness contract — a read never
// returns data more than a bound out of date with the backend — against
// real write acknowledgements, and drives closed-loop load through a
// live node to exercise it (load.go).
//
// Writes are ordered by the version the store assigned, not by their
// values or by when the writer recorded the ack: a read of a write still
// in flight and two writers whose acks are recorded out of order are
// both within the contract.
package oracle

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"sync"
	"time"
)

// readHorizon bounds how long before its Check a read may have been
// invoked: the client's default request timeout plus margin. History
// older than the horizon is folded away; a read invoked earlier still
// gets a verdict, only a more lenient one.
const readHorizon = 15 * time.Second

// Value encodes a write's sequence number as the value the Checker
// expects to read back.
func Value(seq uint64) []byte { return strconv.AppendUint(nil, seq, 10) }

// Verdict judges one read.
type Verdict struct {
	// Junk: the value is not a sequence number, or not the one written
	// at the returned version.
	Junk bool
	// Over, when positive, is how long before invoke−bound a write newer
	// than the returned version was acknowledged: the read was stale.
	Over time.Duration
}

// OK reports whether the read met the contract.
func (v Verdict) OK() bool { return !v.Junk && v.Over <= 0 }

func (v Verdict) String() string {
	switch {
	case v.Junk:
		return "junk value"
	case v.Over > 0:
		return fmt.Sprintf("staler than the bound by %v", v.Over)
	}
	return "ok"
}

// Checker records every acknowledged write per key and judges reads: a
// read invoked at t that returned version v is stale by t − ack − bound
// when a write with a version above v was acknowledged before t − bound.
// It is safe for concurrent use.
type Checker struct {
	bound   time.Duration
	seed    maphash.Seed
	stripes [64]stripe
}

type stripe struct {
	mu   sync.Mutex
	keys map[string]*history
}

// history is one key's acknowledged writes, sorted by ack time.
type history struct {
	acks      []ack
	low, high uint64 // lowest and highest version ever acknowledged
}

// ack is one acknowledged write; maxVer is the highest version among it
// and every write acknowledged before it, folded-away ones included.
type ack struct {
	seq, version, maxVer uint64
	at                   time.Time
}

// NewChecker returns a Checker that judges reads against bound.
func NewChecker(bound time.Duration) *Checker {
	c := &Checker{bound: bound, seed: maphash.MakeSeed()}
	for i := range c.stripes {
		c.stripes[i].keys = make(map[string]*history)
	}
	return c
}

func (c *Checker) stripe(key string) *stripe {
	return &c.stripes[maphash.String(c.seed, key)%uint64(len(c.stripes))]
}

// Ack records that the write of key carrying sequence number seq was
// acknowledged at at with version.
func (c *Checker) Ack(key string, seq, version uint64, at time.Time) {
	s := c.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.keys[key]
	if h == nil {
		h = &history{low: version}
		s.keys[key] = h
	}
	h.low, h.high = min(h.low, version), max(h.high, version)
	i := len(h.acks)
	for i > 0 && h.acks[i-1].at.After(at) {
		i--
	}
	h.acks = append(h.acks, ack{})
	copy(h.acks[i+1:], h.acks[i:])
	a := ack{seq: seq, version: version, maxVer: version, at: at}
	if i > 0 {
		a.maxVer = max(a.maxVer, h.acks[i-1].maxVer)
	}
	h.acks[i] = a
	for j := i + 1; j < len(h.acks); j++ {
		h.acks[j].maxVer = max(h.acks[j].maxVer, a.maxVer)
	}
	// Fold away history no read can still need: a later entry before
	// every cutoff to come carries the dropped entries' maxVer.
	keep := at.Add(-c.bound - readHorizon)
	n := 0
	for n+1 < len(h.acks) && h.acks[n+1].at.Before(keep) {
		n++
	}
	if n > 0 {
		h.acks = append(h.acks[:0], h.acks[n:]...)
	}
}

// Check judges a read of key invoked at invoked that returned value at
// version. A key with no recorded write is not judged, and neither is
// the value of a version below every recorded one: the key held data
// from before the Checker's writes.
func (c *Checker) Check(key string, value []byte, version uint64, invoked time.Time) Verdict {
	seq, perr := strconv.ParseUint(string(value), 10, 64)
	s := c.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.keys[key]
	if h == nil {
		return Verdict{}
	}
	acks := h.acks
	if version >= h.low {
		if perr != nil {
			return Verdict{Junk: true}
		}
		// maxVer never decreases along acks, so the write at version, if
		// still recorded, lies after the last entry whose maxVer is below
		// it.
		for i := len(acks) - 1; i >= 0 && acks[i].maxVer >= version; i-- {
			if acks[i].version == version {
				if acks[i].seq != seq {
					return Verdict{Junk: true}
				}
				break
			}
		}
	}
	cutoff := invoked.Add(-c.bound)
	n := sort.Search(len(acks), func(i int) bool { return !acks[i].at.Before(cutoff) })
	if n == 0 || acks[n-1].maxVer <= version {
		return Verdict{}
	}
	first := sort.Search(n, func(i int) bool { return acks[i].maxVer > version })
	return Verdict{Over: invoked.Sub(acks[first].at) - c.bound}
}

// Lost reports whether a read of key at version, taken once writes have
// quiesced past the bound, misses an acknowledged write.
func (c *Checker) Lost(key string, version uint64) bool {
	s := c.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.keys[key]
	return h != nil && version < h.high
}
