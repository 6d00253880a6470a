package main

import (
	"slices"
	"testing"
	"time"
)

// opStream renders the first n ops of every seeded stream of s: each
// caller's reads, the open-loop schedule, the write sample and the
// probe gaps.
func opStream(s *spec, seed uint64, n int) [][]int {
	pick := s.readSampler()
	var out [][]int
	for c := 0; c < callers; c++ {
		st := s.readStream(pick, seed, c)
		for i := 0; i < n; i++ {
			out = append(out, slices.Clone(st.next()))
		}
	}
	if s.mixed() {
		o := s.openStream(seed)
		var ops []openOp
		for k := 0; k < n; k++ {
			for _, op := range o.at(k, ops[:0]) {
				w := 0
				if op.write {
					w = 1
				}
				out = append(out, []int{k, op.idx, w})
			}
		}
	}
	out = append(out, (&env{s: s, seed: seed, pick: pick}).writeSample(n))
	for p := 0; p < probeKeys; p++ {
		gap := probeGaps(seed, p)
		for i := 0; i < 8; i++ {
			out = append(out, []int{p, int(gap())})
		}
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	for _, s := range workloads() {
		t.Run(s.name, func(t *testing.T) {
			a, b := opStream(s, 7, 200), opStream(s, 7, 200)
			if !slices.EqualFunc(a, b, slices.Equal[[]int]) {
				t.Fatal("two streams from seed 7 differ")
			}
			if c := opStream(s, 8, 200); slices.EqualFunc(a, c, slices.Equal[[]int]) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
		})
	}
}

func TestOpenStreamRates(t *testing.T) {
	s, err := findSpec("mixed-push")
	if err != nil {
		t.Fatal(err)
	}
	o := s.openStream(1)
	ticks := int(10 * time.Second / tick)
	var hot, coldW, coldR int
	var ops []openOp
	for k := 0; k < ticks; k++ {
		for _, op := range o.at(k, ops[:0]) {
			switch {
			case op.idx < 0 || op.idx >= s.keys:
				t.Fatalf("op key %d outside [0, %d)", op.idx, s.keys)
			case op.idx < s.readKeys && !op.write:
				t.Fatalf("open-loop read of read-heavy key %d", op.idx)
			case op.idx < s.readKeys:
				hot++
			case op.write:
				coldW++
			default:
				coldR++
			}
		}
	}
	if hot != int(10*s.hotWrites) || coldW != int(10*s.coldWrites) || coldR != int(10*s.coldReads) {
		t.Fatalf("10s of schedule: %d hot writes, %d cold writes, %d cold reads; want %v, %v, %v",
			hot, coldW, coldR, 10*s.hotWrites, 10*s.coldWrites, 10*s.coldReads)
	}
	if r := float64(coldR) / float64(coldR+coldW); r < 0.24 || r > 0.26 {
		t.Fatalf("write-heavy half read ratio %.3f, want 0.25", r)
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 7, 1 << 40} {
		v := valueOf("k0000042", seq)
		if len(v) != valueSize {
			t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
		}
		got, ok := parseValue("k0000042", v)
		if !ok || got != seq {
			t.Fatalf("parseValue = %d, %v; want %d, true", got, ok, seq)
		}
		if _, ok := parseValue("k0000043", v); ok {
			t.Fatal("value accepted for another key")
		}
		v[valueSize-1]++
		if _, ok := parseValue("k0000042", v); ok {
			t.Fatal("corrupted value accepted")
		}
	}
}
