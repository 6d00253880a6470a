package lb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freshcache/internal/proto"
	"freshcache/internal/sketch"
)

// GET forwarding. A GET frame is never decoded: the read loop peeks its
// key, picks the affine cache, and queues a copy of the frame, with its
// seq rewritten to one unique on the upstream conn, on that cache's
// single multiplexed conn. The upstream reader maps each response back
// to its client conn and seq and queues the response bytes verbatim.
// Only a traced GET's response is decoded, to append the LB span. There
// is no goroutine per request.

// fwdTimeout bounds one forwarded GET, like client.Options'
// RequestTimeout default: a GET unanswered this long is answered with
// an error and its late response dropped.
const fwdTimeout = 10 * time.Second

// dialTimeout bounds an upstream dial, like client.Options' DialTimeout
// default.
const dialTimeout = 5 * time.Second

// errClosed answers GETs forwarded to a balancer that is shutting down.
var errClosed = errors.New("lb: closed")

// clientConn is the part of a client connection the upstream readers
// answer through.
type clientConn struct {
	// out is the connection's response queue. Its writer releases a
	// maxConnInflight slot per flushed frame, so out (maxConnInflight
	// deep) always has room and an upstream reader never blocks on a
	// slow client.
	out chan proto.Outgoing
	// pending counts the requests whose response is not yet queued on
	// out; out closes only once it is zero.
	pending sync.WaitGroup
}

// fwd is one forwarded GET awaiting its upstream response.
type fwd struct {
	cc    *clientConn
	seq   uint64 // the client's seq, restored on the response
	start time.Time
	tr    *proto.SpanRec // nil unless traced
}

// reply queues o as the response to one of cc's requests.
func (cc *clientConn) reply(o proto.Outgoing) {
	cc.out <- o
	cc.pending.Done()
}

// upstream is the GET path to one cache: at most one live conn at a
// time, redialed by the first GET after it breaks.
type upstream struct {
	addr string
	cur  atomic.Pointer[upConn]

	mu     sync.Mutex
	closed bool
}

// conn returns the live upstream conn, starting a new one when there is
// none. The dial runs on the new conn's own goroutine, so a GET never
// waits for it: its frame queues at once, and a failed dial answers it.
func (u *upstream) conn(s *Server) (*upConn, error) {
	if uc := u.cur.Load(); uc != nil && !uc.broken() {
		return uc, nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, errClosed
	}
	uc := u.cur.Load()
	if uc == nil || uc.broken() {
		uc = s.startUpConn(u.addr)
		u.cur.Store(uc)
	}
	return uc, nil
}

// close answers every GET in flight on u with an error and refuses new
// ones.
func (u *upstream) close(s *Server) {
	u.mu.Lock()
	u.closed = true
	uc := u.cur.Load()
	u.mu.Unlock()
	if uc != nil {
		uc.fail(s, errClosed)
	}
}

// upConn is one multiplexed conn to a cache, shared by the GETs of every
// client conn.
type upConn struct {
	// out is drained by proto.WriteQueue. It is as deep as one client
	// conn's in-flight bound, so one client's burst queues without
	// blocking its read loop.
	out  chan proto.Outgoing
	done chan struct{} // closed when the conn breaks
	// sends counts the senders between registering a GET and queuing
	// its frame, so out is closed only after the last of them.
	sends sync.WaitGroup

	mu      sync.Mutex
	conn    net.Conn // nil until dialed
	seq     uint64
	pending map[uint64]fwd
	err     error
}

func (s *Server) startUpConn(addr string) *upConn {
	uc := &upConn{
		out:     make(chan proto.Outgoing, maxConnInflight),
		done:    make(chan struct{}),
		pending: make(map[uint64]fwd),
	}
	s.wg.Add(1)
	go s.runUpConn(uc, addr)
	return uc
}

func (uc *upConn) broken() bool {
	select {
	case <-uc.done:
		return true
	default:
		return false
	}
}

// runUpConn dials the cache, then serves the conn until it breaks: a
// WriteQueue writer, a timeout sweep, and the response reader on this
// goroutine.
func (s *Server) runUpConn(uc *upConn, addr string) {
	defer s.wg.Done()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		// No writer ever drains out; the frames queued on it are
		// garbage once fail has answered their GETs.
		uc.fail(s, fmt.Errorf("lb: dialing cache %s: %w", addr, err))
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort latency tweak
	}
	uc.mu.Lock()
	uc.conn = conn
	failed := uc.err != nil
	uc.mu.Unlock()
	if failed {
		conn.Close() // failed while dialing
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		proto.WriteQueue(conn, uc.out, conn)
	}()
	go func() {
		defer wg.Done()
		uc.sweep(s)
	}()
	s.readUpstream(uc, addr, conn)
	uc.sends.Wait()
	close(uc.out)
	wg.Wait()
}

// send registers f under a fresh upstream seq and queues frame, copied
// with that seq. An error means the conn is broken and f was not
// registered.
func (uc *upConn) send(s *Server, frame []byte, f fwd) error {
	uc.mu.Lock()
	if uc.err != nil {
		err := uc.err
		uc.mu.Unlock()
		return err
	}
	uc.seq++
	seq := uc.seq
	uc.pending[seq] = f
	uc.sends.Add(1)
	uc.mu.Unlock()

	o := proto.Outgoing{Raw: proto.CopyFrame(frame, seq)}
	select {
	case uc.out <- o:
		uc.sends.Done()
		return nil
	default:
	}
	// The queue is full: wait for room or a break. A queue full for a
	// whole timeout means the cache stopped reading, which wedges every
	// GET behind it, so that breaks the conn. In every case f stays
	// registered, and a break answers it.
	t := time.NewTimer(s.fwdTimeout)
	defer t.Stop()
	select {
	case uc.out <- o:
		uc.sends.Done()
	case <-uc.done:
		o.Discard()
		uc.sends.Done()
	case <-t.C:
		o.Discard()
		uc.sends.Done()
		uc.fail(s, fmt.Errorf("lb: cache send queue stalled for %v", s.fwdTimeout))
	}
	return nil
}

// fail breaks the conn once: it closes the socket and answers every
// pending GET with an error.
func (uc *upConn) fail(s *Server, err error) {
	uc.mu.Lock()
	if uc.err != nil {
		uc.mu.Unlock()
		return
	}
	uc.err = err
	pend := uc.pending
	uc.pending = nil
	conn := uc.conn
	uc.mu.Unlock()
	close(uc.done)
	if conn != nil {
		conn.Close()
	}
	for _, f := range pend {
		s.replyErr(f, err)
	}
}

// take removes and returns the GET registered under seq.
func (uc *upConn) take(seq uint64) (fwd, bool) {
	uc.mu.Lock()
	f, ok := uc.pending[seq]
	delete(uc.pending, seq)
	uc.mu.Unlock()
	return f, ok
}

// sweep answers GETs pending past fwdTimeout with an error, on a tick of
// an eighth of it, as the client's janitor does. The conn stays up: a
// late response is dropped as unknown.
func (uc *upConn) sweep(s *Server) {
	tick := min(max(s.fwdTimeout/8, 5*time.Millisecond), 250*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	var late []fwd
	for {
		select {
		case <-uc.done:
			return
		case <-t.C:
		}
		late = late[:0]
		uc.mu.Lock()
		for seq, f := range uc.pending {
			if time.Since(f.start) > s.fwdTimeout {
				delete(uc.pending, seq)
				late = append(late, f)
			}
		}
		uc.mu.Unlock()
		for _, f := range late {
			s.replyErr(f, fmt.Errorf("lb: GET timed out after %v", s.fwdTimeout))
		}
	}
}

// readUpstream routes each response on conn back to its client conn
// until the conn breaks. A response whose seq is not pending (its GET
// timed out) is dropped.
func (s *Server) readUpstream(uc *upConn, addr string, conn net.Conn) {
	r := proto.NewReader(conn)
	for {
		frame, err := r.ReadFrame()
		if err != nil {
			uc.fail(s, fmt.Errorf("lb: cache %s: connection broken: %w", addr, err))
			return
		}
		t, seq, _ := proto.FrameHead(frame)
		f, ok := uc.take(seq)
		if !ok {
			continue
		}
		s.readRTT.Observe(float64(time.Since(f.start)))
		if t == proto.MsgErr {
			s.c.Errors.Inc()
		}
		if f.tr == nil {
			f.cc.reply(proto.Outgoing{Raw: proto.CopyFrame(frame, f.seq)})
			continue
		}
		// Traced: decode to append the LB span, then encode now, as the
		// decoded value aliases r's buffer.
		m := proto.GetMsg()
		var raw *proto.SharedFrame
		if err = r.DecodeFrame(frame, m); err == nil {
			f.tr.Add(m.Trace)
			m.Seq = f.seq
			raw, err = proto.EncodeShared(s.finishTrace(f.tr, m), 1)
		}
		proto.PutMsg(m)
		if err != nil {
			s.c.Errors.Inc()
			s.replyMsg(f, errResp(fmt.Errorf("lb: cache %s: %w", addr, err)))
			continue
		}
		f.cc.reply(proto.Outgoing{Raw: raw})
	}
}

// replyErr answers a forwarded GET that got no upstream response.
func (s *Server) replyErr(f fwd, err error) {
	s.c.Errors.Inc()
	s.readRTT.Observe(float64(time.Since(f.start)))
	s.replyMsg(f, errResp(err))
}

// replyMsg answers f with resp, which must not alias any read buffer.
func (s *Server) replyMsg(f fwd, resp *proto.Msg) {
	resp.Seq = f.seq
	f.cc.reply(proto.Outgoing{Msg: s.finishTrace(f.tr, resp), Pooled: true})
}

func errResp(err error) *proto.Msg {
	resp := proto.GetMsg()
	resp.Type, resp.Err = proto.MsgErr, err.Error()
	return resp
}

// forward sends a GET frame to its affine cache. The caller has taken
// the request's inflight and maxConnInflight slots and added it to
// cc.pending; the response, or an error, is queued on cc.out.
func (s *Server) forward(cc *clientConn, frame, key []byte, traceID uint64) {
	s.c.Reads.Inc()
	_, seq, traced := proto.FrameHead(frame)
	f := fwd{cc: cc, seq: seq, start: time.Now()}
	if traced {
		f.tr = proto.StartSpanID(traceID, "lb")
	}
	u := &s.ups[s.cacheRing.OwnerOfHash(sketch.Hash(key))]
	uc, err := u.conn(s)
	if err == nil {
		err = uc.send(s, frame, f)
	}
	if err != nil {
		s.replyErr(f, err)
	}
}
