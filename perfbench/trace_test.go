package main

import (
	"testing"
	"time"

	"freshcache/internal/proto"
)

func span(node string, start, end int64) proto.Span {
	us := int64(time.Microsecond)
	return proto.Span{Node: node, Start: start * us, Dur: (end - start) * us}
}

func selfOf(spans []proto.Span) []time.Duration {
	var out []time.Duration
	selfTimes(spans, func(_ string, self time.Duration) { out = append(out, self) })
	return out
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	for _, tc := range []struct {
		name  string
		spans []proto.Span
		want  []time.Duration
	}{
		{
			name: "single get hit",
			spans: []proto.Span{
				span("cache:cache-0", 10, 12),
				span("lb", 0, 40),
			},
			want: []time.Duration{2 * us, 38 * us},
		},
		{
			name: "get miss filled from a store",
			spans: []proto.Span{
				span("store:shard-0", 20, 30),
				span("cache:cache-1", 10, 50),
				span("lb", 0, 60),
			},
			want: []time.Duration{10 * us, 30 * us, 20 * us},
		},
		{
			// An MGET split across both caches; cache-1 fills its misses
			// with one MFILL per store shard, concurrently. The LB's
			// children overlap, and so do cache-1's.
			name: "mget fan-out with sibling per-shard fills",
			spans: []proto.Span{
				span("store:shard-0", 10, 40),
				span("cache:cache-0", 5, 60),
				span("store:shard-0", 10, 50),
				span("store:shard-1", 12, 70),
				span("cache:cache-1", 6, 90),
				span("lb", 0, 100),
			},
			want: []time.Duration{30 * us, 25 * us, 40 * us, 58 * us, 24 * us, 15 * us},
		},
		{
			// A sibling whose interval covers the other's must not
			// become its parent.
			name: "sibling interval covering its sibling",
			spans: []proto.Span{
				span("store:shard-0", 20, 30),
				span("store:shard-1", 12, 70),
				span("cache:cache-0", 5, 80),
				span("lb", 0, 100),
			},
			want: []time.Duration{10 * us, 58 * us, 17 * us, 25 * us},
		},
		{
			name: "put through the lb",
			spans: []proto.Span{
				span("store:shard-1", 30, 330),
				span("lb", 0, 400),
			},
			want: []time.Duration{300 * us, 100 * us},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := selfOf(tc.spans)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d self times, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("span %d (%s): self %v, want %v", i, tc.spans[i].Node, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestSpanStatsClientSelf(t *testing.T) {
	c := newSpanStats()
	c.add(&proto.Trace{Spans: []proto.Span{
		span("cache:cache-0", 10, 12),
		span("lb", 0, 40),
	}}, 100*time.Microsecond)
	if got := c.self["client"]; len(got) != 1 || got[0] != 60*time.Microsecond {
		t.Fatalf("client self = %v, want [60µs]", got)
	}
	if got := c.self["cache"]; len(got) != 1 || got[0] != 2*time.Microsecond {
		t.Fatalf("cache self = %v, want [2µs]", got)
	}
}
