package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"freshcache/internal/proto"
)

// Per-hop self time from the wire trace block.
//
// A traced response carries a flat span list in post-order: every hop
// appends the spans of its downstream calls and then its own, so a
// span's children are the subtrees immediately before it. Per-shard
// fan-out adds sibling subtrees whose intervals overlap. A span's self
// time is its duration minus the union of its children's intervals.

// layerOf maps a span's node name ("lb", "cache:cache-0",
// "store:shard-1") to its module name.
func layerOf(node string) string {
	if i := strings.IndexByte(node, ':'); i >= 0 {
		return node[:i]
	}
	return node
}

// depth orders the hops client-side first. A child always sits deeper
// than its parent, which keeps concurrent same-tier siblings from
// nesting inside one another when one's interval happens to cover the
// other's.
func depth(layer string) int {
	switch layer {
	case "lb":
		return 1
	case "cache":
		return 2
	case "store":
		return 3
	}
	return 4
}

// slack absorbs the skew between a span's wall-clock start and its
// monotonic duration when testing whether a child fits in its parent.
const slack = int64(time.Microsecond)

// selfTimes calls fn with every span's layer and self time.
func selfTimes(spans []proto.Span, fn func(layer string, self time.Duration)) {
	type root struct {
		start, end int64
		depth      int
	}
	var stack []root
	var kids [][2]int64
	for _, s := range spans {
		d := depth(layerOf(s.Node))
		end := s.Start + s.Dur
		kids = kids[:0]
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.depth <= d || top.start < s.Start-slack || top.end > end+slack {
				break
			}
			kids = append(kids, [2]int64{max(top.start, s.Start), min(top.end, end)})
			stack = stack[:len(stack)-1]
		}
		fn(layerOf(s.Node), time.Duration(s.Dur-covered(kids)))
		stack = append(stack, root{s.Start, end, d})
	}
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd int64
	for i, x := range iv {
		switch {
		case i == 0:
			curStart, curEnd = x[0], x[1]
		case x[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = x[0], x[1]
		case x[1] > curEnd:
			curEnd = x[1]
		}
	}
	if len(iv) > 0 {
		total += curEnd - curStart
	}
	return total
}

// spanStats collects self times per layer from traced requests; the
// client's self time is the end-to-end time minus the root span.
type spanStats struct {
	mu   sync.Mutex
	self map[string][]time.Duration
}

func newSpanStats() *spanStats { return &spanStats{self: map[string][]time.Duration{}} }

func (c *spanStats) add(tr *proto.Trace, e2e time.Duration) {
	if tr == nil || len(tr.Spans) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	selfTimes(tr.Spans, func(layer string, self time.Duration) {
		c.self[layer] = append(c.self[layer], self)
	})
	root := tr.Spans[len(tr.Spans)-1]
	c.self["client"] = append(c.self["client"], e2e-time.Duration(root.Dur))
}
