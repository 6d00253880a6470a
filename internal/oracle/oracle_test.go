package oracle

import (
	"io"
	"log"
	"net"
	"testing"
	"time"

	"freshcache/internal/store"
)

func TestChecker(t *testing.T) {
	const bound = time.Second
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	type write struct {
		seq, version uint64
		at           time.Duration
	}
	for _, tc := range []struct {
		name    string
		acks    []write // recorded in this order
		value   string
		version uint64
		invoked time.Duration
		want    Verdict
	}{{
		name:    "read of a write still in flight",
		acks:    []write{{1, 1, 0}},
		value:   "2",
		version: 2,
		invoked: 5 * time.Second,
	}, {
		name: "two writers acking out of order",
		// The v3 ack is recorded first, the v2 ack after it: the newest
		// recorded value is "2", yet v3 is the newest write.
		acks:    []write{{3, 3, 100 * time.Millisecond}, {2, 2, 101 * time.Millisecond}},
		value:   "3",
		version: 3,
		invoked: 5 * time.Second,
	}, {
		name:    "newer write acknowledged within the bound",
		acks:    []write{{1, 1, 0}, {2, 2, time.Second}},
		value:   "1",
		version: 1,
		invoked: 1900 * time.Millisecond,
	}, {
		name:    "stale read",
		acks:    []write{{1, 1, 0}, {2, 2, time.Second}, {3, 3, 1100 * time.Millisecond}},
		value:   "1",
		version: 1,
		invoked: 2250 * time.Millisecond,
		want:    Verdict{Over: 250 * time.Millisecond},
	}, {
		name:    "stale read against out-of-order acks",
		acks:    []write{{1, 1, 0}, {3, 3, time.Second}, {2, 2, 900 * time.Millisecond}},
		value:   "2",
		version: 2,
		invoked: 2500 * time.Millisecond,
		want:    Verdict{Over: 500 * time.Millisecond},
	}, {
		name:    "junk value",
		acks:    []write{{1, 1, 0}},
		value:   "garbage",
		version: 1,
		invoked: time.Second,
		want:    Verdict{Junk: true},
	}, {
		name:    "value not the one written at that version",
		acks:    []write{{1, 1, 0}, {2, 2, 10 * time.Millisecond}},
		value:   "1",
		version: 2,
		invoked: time.Second,
		want:    Verdict{Junk: true},
	}, {
		name:    "value from before the first recorded write, within the bound",
		acks:    []write{{1, 5, time.Second}},
		value:   "probe",
		version: 2,
		invoked: 1500 * time.Millisecond,
	}, {
		name:    "value from before the first recorded write, past the bound",
		acks:    []write{{1, 5, time.Second}},
		value:   "probe",
		version: 2,
		invoked: 2500 * time.Millisecond,
		want:    Verdict{Over: 500 * time.Millisecond},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker(bound)
			for _, w := range tc.acks {
				c.Ack("k", w.seq, w.version, at(w.at))
			}
			got := c.Check("k", []byte(tc.value), tc.version, at(tc.invoked))
			if got != tc.want {
				t.Errorf("Check = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCheckerLost(t *testing.T) {
	c := NewChecker(time.Second)
	now := time.Now()
	c.Ack("k", 1, 4, now)
	c.Ack("k", 2, 7, now)
	if !c.Lost("k", 4) {
		t.Error("a read below the acknowledged high-water is not a lost write")
	}
	if c.Lost("k", 7) || c.Lost("k", 9) || c.Lost("never-written", 0) {
		t.Error("a read at or above the high-water counts as a lost write")
	}
}

// TestCheckerFoldKeepsNewestBeforeCutoff acks a write, then a long tail
// of writes to another version far past the read horizon: the history
// is folded, but a read of the first version is still stale.
func TestCheckerFoldKeepsNewestBeforeCutoff(t *testing.T) {
	c := NewChecker(time.Second)
	t0 := time.Unix(1000, 0)
	c.Ack("k", 1, 1, t0)
	c.Ack("k", 9, 9, t0.Add(time.Second))
	for i := 0; i < 100; i++ {
		c.Ack("k", 2, 2, t0.Add(readHorizon*time.Duration(i+2)))
	}
	h := c.stripe("k").keys["k"]
	if len(h.acks) > 3 {
		t.Errorf("history not folded: %d entries", len(h.acks))
	}
	last := t0.Add(readHorizon * 101)
	if v := c.Check("k", []byte("2"), 2, last); v.OK() {
		t.Errorf("read of v2 below the folded-away v9 judged %v", v)
	}
}

// TestLoad runs the closed loop against one live store and expects a
// clean result and audit.
func TestLoad(t *testing.T) {
	st := store.New(store.Config{T: 100 * time.Millisecond, Logger: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(ln) //nolint:errcheck
	defer st.Close()

	ld, err := Start(Config{Addr: ln.Addr().String(), Keys: 16, Readers: 2, Bound: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	res := ld.Stop()
	if res.Reads == 0 || res.Writes == 0 || res.Errors != 0 || res.Violations != 0 || res.FirstViolation != nil {
		t.Fatalf("result: %d reads, %d writes, %d errors, %d violations (%v)",
			res.Reads, res.Writes, res.Errors, res.Violations, res.FirstViolation)
	}
	if lost, err := ld.Audit(); lost != 0 {
		t.Fatalf("%d lost writes: %v", lost, err)
	}
}
