package main

import (
	"testing"
	"time"
)

func TestTruthVerdicts(t *testing.T) {
	const key = "k0000001"
	T := staleBound
	tr := newTruth(2, T)
	t0 := time.Now()
	tr.record(1, tr.nextSeq(1), 10, t0)
	s1 := tr.nextSeq(1)
	tr.record(1, s1, 20, t0.Add(time.Second))

	for _, tc := range []struct {
		name    string
		value   []byte
		version uint64
		invoked time.Time
		want    verdict
	}{
		{"newest version", valueOf(key, 1), 20, t0.Add(2 * time.Second), readOK},
		{"old version within T of the newer ack", valueOf(key, 0), 10, t0.Add(time.Second + T/2), readOK},
		{"old version just past T", valueOf(key, 0), 10, t0.Add(time.Second + T + deliverySlack/2), readLate},
		{"old version past T and the slack", valueOf(key, 0), 10, t0.Add(time.Second + T + 2*deliverySlack), readStale},
		{"version that does not match its write", valueOf(key, 1), 21, t0.Add(2 * time.Second), readWrong},
		{"never written sequence", valueOf(key, 5), 20, t0.Add(2 * time.Second), readWrong},
		{"another key's value", valueOf("k0000002", 1), 20, t0.Add(2 * time.Second), readWrong},
	} {
		if got, _ := tr.check(1, key, tc.value, tc.version, tc.invoked); got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTruthOutOfOrderAcks(t *testing.T) {
	const key = "k0000000"
	tr := newTruth(1, staleBound)
	t0 := time.Now()
	a, b := tr.nextSeq(0), tr.nextSeq(0)
	// The later write's ack arrives first.
	tr.record(0, b, 7, t0.Add(time.Millisecond))
	tr.record(0, a, 5, t0)
	late := t0.Add(time.Second)
	if got, _ := tr.check(0, key, valueOf(key, a), 5, late); got != readStale {
		t.Fatalf("reading the older write long after both acks: verdict %d, want stale", got)
	}
	if got, _ := tr.check(0, key, valueOf(key, b), 7, late); got != readOK {
		t.Fatalf("reading the newer write: verdict %d, want ok", got)
	}
}
