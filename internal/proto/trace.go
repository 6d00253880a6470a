package proto

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"
)

// Wire-level request tracing.
//
// A traced frame sets traceFlag on the type byte and carries a trace
// block between the sequence number and the normal payload: the sampled
// trace ID plus the per-hop spans accumulated so far. Requests carry
// just the ID; each server that handles a traced request appends its own
// span (including everything downstream of it) to the *response*, so by
// the time the reply reaches the client it holds the complete latency
// breakdown, innermost hop first. Untraced frames are byte-identical to
// the old format, and readers treat a clear flag as "no trace", so old
// and new peers interoperate.

// traceFlag marks a frame as carrying a trace block. Message type values
// stay below it, so the flag bit is unambiguous.
const traceFlag = 0x80

// MaxTraceSpans bounds the spans one frame may carry; enough for several
// forwarding layers with headroom, small enough that a hostile frame
// cannot balloon the decoder.
const MaxTraceSpans = 32

// Span is one hop's timing in a traced request: which node handled it,
// when it started (unix nanoseconds), and how long it took including
// everything downstream of that hop.
type Span struct {
	Node  string
	Start int64 // unix nanoseconds at hop entry
	Dur   int64 // nanoseconds spent at and below this hop
}

// Trace is the trace context carried by a traced frame.
type Trace struct {
	ID    uint64
	Spans []Span
}

func appendTrace(b []byte, t *Trace) ([]byte, error) {
	if len(t.Spans) > MaxTraceSpans {
		return b, fmt.Errorf("%w: %d trace spans", ErrMalformed, len(t.Spans))
	}
	b = binary.BigEndian.AppendUint64(b, t.ID)
	b = append(b, byte(len(t.Spans)))
	var err error
	for _, s := range t.Spans {
		if b, err = appendString16(b, s.Node); err != nil {
			return b, err
		}
		b = binary.BigEndian.AppendUint64(b, uint64(s.Start))
		b = binary.BigEndian.AppendUint64(b, uint64(s.Dur))
	}
	return b, nil
}

// parseTrace decodes the trace block at c into t and returns its ID.
// With t nil it only validates the block, allocating nothing: the GET
// peek skips a traced frame's spans this way.
func parseTrace(c *cursor, t *Trace) (uint64, error) {
	id, err := c.u64()
	if err != nil {
		return 0, err
	}
	n, err := c.u8()
	if err != nil {
		return 0, err
	}
	if int(n) > MaxTraceSpans {
		return 0, fmt.Errorf("%w: %d trace spans", ErrMalformed, n)
	}
	if t != nil {
		t.ID = id
		if n > 0 {
			t.Spans = make([]Span, 0, n)
		}
	}
	for i := uint8(0); i < n; i++ {
		node, err := c.bytes16()
		if err != nil {
			return 0, err
		}
		start, err := c.u64()
		if err != nil {
			return 0, err
		}
		dur, err := c.u64()
		if err != nil {
			return 0, err
		}
		if t != nil {
			t.Spans = append(t.Spans, Span{Node: c.str(node), Start: int64(start), Dur: int64(dur)})
		}
	}
	return id, nil
}

// TraceLogLine renders a completed trace as one structured log line —
// the slow-request span log every server emits above its threshold.
func TraceLogLine(t *Trace, node string, total time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slowtrace trace=%016x node=%s total=%s spans=[", t.ID, node, total)
	for i, s := range t.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", s.Node, time.Duration(s.Dur))
	}
	b.WriteByte(']')
	return b.String()
}

// SpanRec accumulates one hop's span for a traced in-flight request.
// StartSpan at dispatch, Add the traces of any downstream calls made
// while handling, Finish on the response. A nil *SpanRec is a no-op on
// every method, so untraced requests cost one nil check.
type SpanRec struct {
	id    uint64
	spans []Span
	start time.Time
	node  string
}

// StartSpan begins a hop span for m if it carries a trace; it copies the
// request's accumulated spans so the pooled Msg can be reused freely.
// Returns nil (a no-op recorder) for untraced requests.
func StartSpan(m *Msg, node string) *SpanRec {
	if m == nil || m.Trace == nil {
		return nil
	}
	var spans []Span
	if n := len(m.Trace.Spans); n > 0 {
		spans = append(make([]Span, 0, n+1), m.Trace.Spans...)
	}
	return &SpanRec{id: m.Trace.ID, spans: spans, start: time.Now(), node: node}
}

// StartSpanID begins a hop span for a traced request that is forwarded
// undecoded. The request's own spans travel downstream with the frame
// and come back inside the downstream response trace, so the record
// starts empty.
func StartSpanID(id uint64, node string) *SpanRec {
	return &SpanRec{id: id, start: time.Now(), node: node}
}

// Add merges a downstream call's response trace into this hop's record.
func (r *SpanRec) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.spans = append(r.spans, t.Spans...)
}

// ID returns the trace ID, or 0 on a nil recorder.
func (r *SpanRec) ID() uint64 {
	if r == nil {
		return 0
	}
	return r.id
}

// Elapsed returns the time since the hop span started.
func (r *SpanRec) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Finish closes the hop span and attaches the accumulated trace to resp
// (innermost hops first, this hop last). Oldest spans are dropped if the
// hop count exceeds MaxTraceSpans, so deep forwarding chains degrade
// instead of failing to encode. Returns resp for convenient chaining;
// a nil recorder or nil resp passes through untouched.
func (r *SpanRec) Finish(resp *Msg) *Msg {
	if r == nil || resp == nil {
		return resp
	}
	spans := append(r.spans, Span{
		Node:  r.node,
		Start: r.start.UnixNano(),
		Dur:   int64(time.Since(r.start)),
	})
	if len(spans) > MaxTraceSpans {
		spans = spans[len(spans)-MaxTraceSpans:]
	}
	resp.Trace = &Trace{ID: r.id, Spans: spans}
	return resp
}
