package main

import (
	"sort"
	"sync"
	"time"
)

// truth is the benchmark's staleness and value oracle. It records every
// acknowledged write per key and judges every read against the
// contract: a read invoked at time t must not return a version older
// than one acknowledged before t−T, and must return exactly the bytes
// and version of a write that was issued for that key.
type truth struct {
	bound   time.Duration
	stripes [256]sync.Mutex
	keys    []keyTruth
}

type keyTruth struct {
	nextSeq uint64
	acks    []ack // sorted by at
}

// ack is one acknowledged write; maxVer is the highest version among
// this and every earlier-acknowledged write of the key.
type ack struct {
	seq, version, maxVer uint64
	at                   time.Time
}

// verdict classifies one read.
type verdict int

const (
	readOK verdict = iota
	readWrong
	// readLate: older than a write acknowledged before invoke−T, by no
	// more than deliverySlack.
	readLate
	// readStale: older than a write acknowledged before
	// invoke−T−deliverySlack. The run fails.
	readStale
)

// deliverySlack is how far past T a read may still miss a write before
// the run fails. The stores flush once per T, and the push still has to
// reach and be applied by the cache, so at HEAD some reads of hot keys
// land a few milliseconds past T; those count as late (stale_reads) but
// do not fail the run. T/2 is the delivery slack loadgen and freshbench
// live already allow.
const deliverySlack = staleBound / 2

func newTruth(nkeys int, bound time.Duration) *truth {
	return &truth{bound: bound, keys: make([]keyTruth, nkeys)}
}

func (t *truth) lock(idx int) *sync.Mutex { return &t.stripes[idx%len(t.stripes)] }

// nextSeq reserves the sequence number of a write about to be issued.
func (t *truth) nextSeq(idx int) uint64 {
	mu := t.lock(idx)
	mu.Lock()
	defer mu.Unlock()
	k := &t.keys[idx]
	seq := k.nextSeq
	k.nextSeq++
	return seq
}

// record notes that the write seq of key idx was acknowledged at at
// with version.
func (t *truth) record(idx int, seq, version uint64, at time.Time) {
	mu := t.lock(idx)
	mu.Lock()
	defer mu.Unlock()
	k := &t.keys[idx]
	i := len(k.acks)
	for i > 0 && k.acks[i-1].at.After(at) {
		i--
	}
	k.acks = append(k.acks, ack{})
	copy(k.acks[i+1:], k.acks[i:])
	k.acks[i] = ack{seq: seq, version: version, at: at}
	for j := i; j < len(k.acks); j++ {
		m := k.acks[j].version
		if j > 0 && k.acks[j-1].maxVer > m {
			m = k.acks[j-1].maxVer
		}
		k.acks[j].maxVer = m
	}
}

// check judges a read of key idx that returned value at version and was
// invoked at invoked. For a late or stale read, over is how far past T
// the missing write had been acknowledged.
func (t *truth) check(idx int, key string, value []byte, version uint64, invoked time.Time) (v verdict, over time.Duration) {
	seq, ok := parseValue(key, value)
	if !ok {
		return readWrong, 0
	}
	mu := t.lock(idx)
	mu.Lock()
	defer mu.Unlock()
	k := &t.keys[idx]
	if seq >= k.nextSeq {
		return readWrong, 0 // never written
	}
	for i := len(k.acks) - 1; i >= 0; i-- {
		if k.acks[i].seq == seq {
			if k.acks[i].version != version {
				return readWrong, 0
			}
			break
		}
	}
	// The newest version acknowledged before invoked−T must be visible;
	// over is how long the read was past that bound.
	cutoff := invoked.Add(-t.bound)
	n := sort.Search(len(k.acks), func(i int) bool { return !k.acks[i].at.Before(cutoff) })
	if n == 0 || k.acks[n-1].maxVer <= version {
		return readOK, 0
	}
	for _, a := range k.acks {
		if a.version > version {
			over = invoked.Sub(a.at) - t.bound
			break
		}
	}
	if over > deliverySlack {
		return readStale, over
	}
	return readLate, over
}
