package client

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/proto"
)

// muxTransport is the client transport: a small fixed set of
// multiplexed connections, each shared by every concurrent request
// routed to it. Requests are encoded in the caller's goroutine into
// pooled frames, queued to the connection's writer (which coalesces
// queued frames into one vectored write), and matched to responses by
// sequence number in a dedicated demux reader goroutine — so N
// concurrent calls pipeline onto one socket instead of queueing behind
// a checkout, and a burst of N frames costs one syscall, not N.
//
// Timeouts are deadline sweeps, not per-request timers: each waiter
// records its deadline and a per-connection janitor expires overdue
// waiters on a coarse tick (~timeout/8). A timed-out request abandons
// its pending-map slot (its late response, if any, is dropped on
// arrival) and the connection keeps serving its neighbors. This keeps
// the per-request path to one channel receive — no timer arm/stop, no
// multi-way selects — which is worth ~20% of hot-path CPU at pipelined
// rates.
type muxTransport struct {
	addr   string
	opts   Options
	seq    atomic.Uint64
	rr     atomic.Uint64
	closed atomic.Bool
	slots  []muxSlot
}

// muxSlot lazily holds one live connection. Re-dials are single-flight:
// one caller dials outside the slot lock while the rest wait on the
// dialing gate, so a burst against a dead slot costs one dial — and one
// DialTimeout when the target black-holes — for everyone.
type muxSlot struct {
	mu      sync.Mutex
	mc      *muxConn
	dialing chan struct{} // non-nil while a dial is in flight
	dialErr error         // result of the last completed dial
}

func newMux(addr string, opts Options) *muxTransport {
	return &muxTransport{addr: addr, opts: opts, slots: make([]muxSlot, opts.MaxConns)}
}

func (t *muxTransport) roundTrip(req *proto.Msg) (*proto.Msg, error) {
	req.Seq = t.seq.Add(1)
	var lastErr error
	for attempt := 0; attempt < t.opts.MaxAttempts; attempt++ {
		slot := &t.slots[t.rr.Add(1)%uint64(len(t.slots))]
		mc, err := slot.get(t)
		if err != nil {
			return nil, err // dial (or closed-client) failures are terminal
		}
		resp, sent, err := mc.do(req, t.opts.RequestTimeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if sent {
			// The request may have reached the wire; retrying could
			// double-apply a write.
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: request failed after %d attempts on broken connections: %w",
		t.opts.MaxAttempts, lastErr)
}

func (t *muxTransport) close() error {
	t.closed.Store(true)
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.mc != nil {
			s.mc.fail(ErrClosed)
			s.mc = nil
		}
		s.mu.Unlock()
	}
	return nil
}

// get returns the slot's live connection, re-dialing a dead or empty
// slot. The dial runs outside the slot lock so concurrent callers (and
// Close) never queue behind a slow dial; a dial that completes after
// Close began is failed immediately rather than installed.
func (s *muxSlot) get(t *muxTransport) (*muxConn, error) {
	for {
		s.mu.Lock()
		if t.closed.Load() {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if s.mc != nil && !s.mc.broken() {
			mc := s.mc
			s.mu.Unlock()
			return mc, nil
		}
		if done := s.dialing; done != nil {
			s.mu.Unlock()
			<-done
			s.mu.Lock()
			mc, err := s.mc, s.dialErr
			s.mu.Unlock()
			if mc != nil && !mc.broken() {
				return mc, nil
			}
			if err != nil {
				return nil, err
			}
			continue // the dialed conn already broke; start over
		}
		done := make(chan struct{})
		s.dialing = done
		s.mu.Unlock()

		mc, err := dialMux(t.addr, t.opts.DialTimeout, t.opts.RequestTimeout)
		s.mu.Lock()
		s.dialing = nil
		if err == nil && t.closed.Load() {
			err = ErrClosed
			mc.fail(ErrClosed)
			mc = nil
		}
		s.dialErr = err
		if mc != nil {
			s.mc = mc
		}
		s.mu.Unlock()
		close(done)
		if err != nil {
			return nil, err
		}
		return mc, nil
	}
}

func dialMux(addr string, timeout, reqTimeout time.Duration) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort latency tweak
	}
	return newMuxConn(conn, reqTimeout), nil
}

// muxConn is one multiplexed connection: a writer goroutine draining the
// send queue with vectored writes, a reader goroutine demuxing responses
// to waiters by sequence number, and a janitor goroutine expiring
// waiters past their deadline.
type muxConn struct {
	c  net.Conn
	wq chan *frameBuf

	// now is a coarse wall clock (UnixNano), refreshed by the janitor
	// each tick. Requests stamp their deadlines from it instead of
	// calling time.Now — at pipelined rates the per-request clock read
	// is measurable, and deadline sweeps are tick-grained anyway.
	now atomic.Int64

	mu      sync.Mutex
	pending map[uint64]*waiter
	err     error

	done chan struct{} // closed when the connection breaks
}

type muxResult struct {
	m        *proto.Msg
	err      error
	timedOut bool
}

// waiter is one request's pooled rendezvous: the buffered channel its
// result is delivered on plus the deadline (coarse-clock UnixNano) the
// janitor sweeps against. Exactly one party delivers to ch — whoever
// removes the waiter from the pending map under mc.mu (reader, janitor,
// or the failure sweep) — so after the happy-path receive the waiter is
// clean to reuse. Abandon paths (send-queue stall, conn death before
// queueing) never pool: a racing delivery may still land in ch, and the
// pool must not hand out a dirty channel.
type waiter struct {
	ch       chan muxResult
	deadline int64
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan muxResult, 1)} }}

// frameBuf is a pooled, pre-encoded frame: requests are serialized in
// the caller's goroutine (parallel across callers, and the request's
// byte slices need not outlive the call) and the writer only moves
// bytes.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledFrameBuf keeps one-off giant request frames (a near-MaxFrame
// Put) from pinning their capacity in the pool forever.
const maxPooledFrameBuf = 1 << 20

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) <= maxPooledFrameBuf {
		frameBufPool.Put(fb)
	}
}

// timerPool recycles the slow-path timers. The happy path never arms
// one (timeouts come from the janitor sweep); only a full send queue
// does, so the pool exists for correctness of that rare path, not
// throughput.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Drain a fired-but-unconsumed timer. Redundant under go ≥ 1.23
		// timer semantics (Reset discards stale values), but keeps reuse
		// correct under GODEBUG=asynctimerchan=1.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

func newMuxConn(c net.Conn, reqTimeout time.Duration) *muxConn {
	mc := &muxConn{
		c:       c,
		wq:      make(chan *frameBuf, 256),
		pending: make(map[uint64]*waiter),
		done:    make(chan struct{}),
	}
	mc.now.Store(time.Now().UnixNano())
	go mc.writeLoop()
	go mc.readLoop()
	go mc.janitor(reqTimeout)
	return mc
}

// janitor refreshes the connection's coarse clock and expires waiters
// past their deadline, so the request path itself never touches a timer
// or the system clock. The tick is a fraction of the request timeout:
// late enough to stay cheap (a few wakeups per timeout window), early
// enough that a timeout fires within roughly a tick of its nominal
// deadline (either side, since deadlines are stamped from the coarse
// clock too).
func (mc *muxConn) janitor(reqTimeout time.Duration) {
	tick := reqTimeout / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-mc.done:
			return
		case now := <-t.C:
			nowNs := now.UnixNano()
			mc.now.Store(nowNs)
			mc.expire(nowNs)
		}
	}
}

// expire delivers a timeout to every waiter whose deadline has passed.
// Delivery happens under mc.mu, which is safe: waiter channels are
// buffered and each holds at most the one delivery its pending-map
// removal entitles us to.
func (mc *muxConn) expire(nowNs int64) {
	mc.mu.Lock()
	for seq, w := range mc.pending {
		if nowNs > w.deadline {
			delete(mc.pending, seq)
			w.ch <- muxResult{timedOut: true}
		}
	}
	mc.mu.Unlock()
}

func (mc *muxConn) broken() bool {
	select {
	case <-mc.done:
		return true
	default:
		return false
	}
}

// fail breaks the connection once: records err, closes the socket
// (unblocking both loops), and errors out every pending waiter so none
// hang.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	pend := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	close(mc.done)
	mc.c.Close()
	for _, w := range pend {
		w.ch <- muxResult{err: err} // buffered; never blocks
	}
}

func (mc *muxConn) failure() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err
}

func (mc *muxConn) forget(seq uint64) {
	mc.mu.Lock()
	delete(mc.pending, seq)
	mc.mu.Unlock()
}

// do submits req and waits for its response. sent reports whether the
// frame may have reached the wire: false means the request provably
// never left this client and is safe to retry on another connection.
func (mc *muxConn) do(req *proto.Msg, timeout time.Duration) (resp *proto.Msg, sent bool, err error) {
	fb := frameBufPool.Get().(*frameBuf)
	b, err := proto.AppendFrame(fb.b[:0], req)
	fb.b = b
	if err != nil {
		putFrameBuf(fb)
		return nil, false, err
	}

	w := waiterPool.Get().(*waiter)
	w.deadline = mc.now.Load() + int64(timeout)
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		putFrameBuf(fb)
		waiterPool.Put(w)
		return nil, false, err
	}
	mc.pending[req.Seq] = w
	mc.mu.Unlock()

	// Fast path: the send queue has room, which is the overwhelmingly
	// common case. One non-blocking send, no timer, no select against
	// done — a conn that breaks from here on is handled by the failure
	// sweep delivering to the waiter.
	select {
	case mc.wq <- fb:
	default:
		if resp, sent, err, handled := mc.enqueueSlow(req.Seq, fb, w, timeout); handled {
			return resp, sent, err
		}
	}

	res := <-w.ch
	waiterPool.Put(w) // single delivery consumed; clean to reuse
	if res.timedOut {
		return nil, true, fmt.Errorf("client: %v request timed out after %v", req.Type, timeout)
	}
	return res.m, true, res.err
}

// enqueueSlow blocks until the full send queue accepts fb, the
// connection breaks, or a whole timeout passes. handled=true means the
// request is over and the caller must return (resp, sent, err) as-is;
// handled=false means fb was queued and the caller should wait on w
// normally. The waiter is never pooled on an abandon path: a racing
// delivery may still land in its channel.
func (mc *muxConn) enqueueSlow(seq uint64, fb *frameBuf, w *waiter, timeout time.Duration) (resp *proto.Msg, sent bool, err error, handled bool) {
	timer := getTimer(timeout)
	defer putTimer(timer)
	select {
	case mc.wq <- fb:
		return nil, false, nil, false
	case <-mc.done:
		// Broken before the frame was queued; the failure sweep may have
		// already delivered the error.
		mc.forget(seq)
		putFrameBuf(fb)
		select {
		case res := <-w.ch:
			return nil, false, res.err, true
		default:
		}
		return nil, false, mc.failure(), true
	case <-timer.C:
		// The send queue stayed full for a whole request timeout: the
		// peer has stopped draining the pipe. Unlike a slow response,
		// this wedges every future request, so break the connection. The
		// frame was never queued, so the request is safe to retry on
		// another connection (sent=false).
		mc.forget(seq)
		putFrameBuf(fb)
		serr := fmt.Errorf("client: send queue stalled for %v", timeout)
		mc.fail(serr)
		return nil, false, serr, true
	}
}

// writeLoop drains the send queue, gathering every frame already queued
// into one vectored write — the pre-encoded frames go to the kernel in
// place, with zero intermediate copies.
func (mc *muxConn) writeLoop() {
	var fbs []*frameBuf
	var iov net.Buffers
	for {
		select {
		case fb := <-mc.wq:
			fbs = append(fbs[:0], fb)
			fbs = mc.drainQueued(fbs)
			// One scheduler yield before writing lets callers that are
			// already runnable enqueue their frames too, growing the
			// frames-per-write batch (each write is a syscall) for the
			// cost of one Gosched. A lone caller pays one yield of
			// latency, not a timer.
			runtime.Gosched()
			fbs = mc.drainQueued(fbs)

			var err error
			if len(fbs) == 1 {
				_, err = mc.c.Write(fbs[0].b)
			} else {
				iov = iov[:0]
				for _, f := range fbs {
					iov = append(iov, f.b)
				}
				// WriteTo consumes its receiver; pass a copy of the
				// slice header so iov's backing array stays reusable.
				bufs := iov
				_, err = bufs.WriteTo(mc.c)
				for i := range iov {
					iov[i] = nil
				}
			}
			for _, f := range fbs {
				putFrameBuf(f)
			}
			if err != nil {
				mc.fail(err)
				return
			}
		case <-mc.done:
			return
		}
	}
}

// drainQueued appends every frame already sitting in the send queue.
func (mc *muxConn) drainQueued(fbs []*frameBuf) []*frameBuf {
	for {
		select {
		case fb := <-mc.wq:
			fbs = append(fbs, fb)
		default:
			return fbs
		}
	}
}

// readLoop demuxes responses to their waiters by sequence number. A
// frame with no waiter (a late response whose waiter timed out, or a
// stray push) is dropped; the connection survives. Response Msgs come
// from the shared pool; the caller that receives one owns it and
// returns it via proto.PutMsg.
func (mc *muxConn) readLoop() {
	r := proto.NewReader(mc.c)
	for {
		m := proto.GetMsg()
		if err := r.ReadMsgInto(m); err != nil {
			proto.PutMsg(m)
			if errors.Is(err, net.ErrClosed) {
				mc.fail(ErrClosed)
			} else {
				mc.fail(fmt.Errorf("client: connection broken: %w", err))
			}
			return
		}
		mc.mu.Lock()
		w := mc.pending[m.Seq]
		delete(mc.pending, m.Seq)
		mc.mu.Unlock()
		if w == nil {
			proto.PutMsg(m)
			continue
		}
		if m.Value != nil {
			// The value aliases the reader's buffer and the waiter
			// consumes asynchronously; copy before the next ReadMsgInto
			// invalidates it.
			m.Value = append([]byte(nil), m.Value...)
		}
		if len(m.Ops) > 0 {
			// Batched responses (MGETRESP/MPUTRESP): each op's value
			// aliases the reader's buffer too. Copy them all through one
			// backing buffer — one allocation per batch, not per key. The
			// op keys are interned strings, safe to retain; the Ops slice
			// itself belongs to this pooled Msg.
			total := 0
			for i := range m.Ops {
				total += len(m.Ops[i].Value)
			}
			if total > 0 {
				buf := make([]byte, 0, total)
				for i := range m.Ops {
					if m.Ops[i].Value != nil {
						start := len(buf)
						buf = append(buf, m.Ops[i].Value...)
						m.Ops[i].Value = buf[start:len(buf):len(buf)]
					}
				}
			}
		}
		w.ch <- muxResult{m: m}
	}
}
