package lb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/proto"
)

// fakeCache is a scripted cache: serve runs on each accepted conn.
type fakeCache struct {
	ln    net.Listener
	conns atomic.Int32
}

func startFake(t *testing.T, addr string, serve func(conn net.Conn)) *fakeCache {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCache{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.conns.Add(1)
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return f
}

func (f *fakeCache) addr() string { return f.ln.Addr().String() }

// getResp is the cache's answer to req: the value "v:<key>".
func getResp(req *proto.Msg) *proto.Msg {
	return &proto.Msg{Type: proto.MsgGetResp, Seq: req.Seq, Status: proto.StatusOK,
		Version: 1, Value: []byte("v:" + req.Key)}
}

// answerAll serves every GET on conn with getResp.
func answerAll(conn net.Conn) {
	r, w := proto.NewReader(conn), proto.NewWriter(conn)
	for {
		req, err := r.ReadMsg()
		if err != nil || w.WriteMsg(getResp(req)) != nil {
			return
		}
	}
}

// startLB runs a balancer in front of the given caches. Its store
// address is never dialed by GETs.
func startLB(t *testing.T, drain time.Duration, caches ...string) (*Server, string) {
	t.Helper()
	b, err := New(Config{StoreAddr: "127.0.0.1:1", CacheAddrs: caches,
		DrainTimeout: drain, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { b.Close() })
	return b, ln.Addr().String()
}

// rawClient speaks frames to the balancer directly, so a test picks
// every seq and sees every response frame.
type rawClient struct {
	conn net.Conn
	r    *proto.Reader
	w    *proto.Writer
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{conn: conn, r: proto.NewReader(conn), w: proto.NewWriter(conn)}
}

func (c *rawClient) get(t *testing.T, seq uint64, key string) {
	t.Helper()
	if err := c.w.WriteMsg(&proto.Msg{Type: proto.MsgGet, Seq: seq, Key: key}); err != nil {
		t.Fatal(err)
	}
}

func (c *rawClient) read(t *testing.T) *proto.Msg {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	m, err := c.r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// holdN reads n frames off conn without answering, reporting on got,
// then waits for release.
func holdN(n int, got chan<- struct{}, release <-chan struct{}) func(net.Conn) {
	return func(conn net.Conn) {
		r := proto.NewReader(conn)
		for i := 0; i < n; i++ {
			if _, err := r.ReadMsg(); err != nil {
				return
			}
			got <- struct{}{}
		}
		<-release
	}
}

func waitN(t *testing.T, got <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("cache received %d of %d GETs", i, n)
		}
	}
}

// readErrs reads n responses and checks each is a MsgErr, one per seq
// in 1..n.
func readErrs(t *testing.T, c *rawClient, n int) {
	t.Helper()
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		m := c.read(t)
		if m.Type != proto.MsgErr || m.Seq < 1 || m.Seq > uint64(n) || seen[m.Seq] {
			t.Fatalf("response %d: %v seq %d %q, want one MsgErr per seq 1..%d", i, m.Type, m.Seq, m.Err, n)
		}
		seen[m.Seq] = true
	}
}

func TestForwardCacheKillAnswersInFlight(t *testing.T) {
	const n = 8
	got, kill := make(chan struct{}, n), make(chan struct{})
	fc := startFake(t, "127.0.0.1:0", holdN(n, got, kill))
	addr := fc.addr()
	b, lbAddr := startLB(t, time.Second, addr)
	c := dialRaw(t, lbAddr)
	for seq := uint64(1); seq <= n; seq++ {
		c.get(t, seq, "k")
	}
	waitN(t, got, n)
	fc.ln.Close()
	close(kill) // the cache dies with all n GETs in flight
	readErrs(t, c, n)

	// While the cache is down, a GET's redial fails and answers it.
	c.get(t, n+1, "k")
	if m := c.read(t); m.Type != proto.MsgErr || m.Seq != n+1 {
		t.Fatalf("GET to a dead cache: %v seq %d, want MsgErr", m.Type, m.Seq)
	}

	startFake(t, addr, answerAll) // the cache restarts on its address
	c.get(t, n+2, "k")
	if m := c.read(t); m.Type != proto.MsgGetResp || m.Seq != n+2 || string(m.Value) != "v:k" {
		t.Fatalf("GET after restart: %v seq %d %q %q", m.Type, m.Seq, m.Value, m.Err)
	}
	if st := b.StatsMap(); st["reads"] != n+2 || st["errors"] != n+1 {
		t.Errorf("reads %d errors %d, want %d %d", st["reads"], st["errors"], n+2, n+1)
	}
}

func TestCloseAnswersForwardedGETs(t *testing.T) {
	const n = 5
	got, release := make(chan struct{}, n), make(chan struct{})
	defer close(release)
	fc := startFake(t, "127.0.0.1:0", holdN(n, got, release)) // never answers
	b, lbAddr := startLB(t, 20*time.Millisecond, fc.addr())
	c := dialRaw(t, lbAddr)
	for seq := uint64(1); seq <= n; seq++ {
		c.get(t, seq, "k")
	}
	waitN(t, got, n)
	b.Close()
	// Close has returned: every answer is already on the wire, and the
	// connection ends after them.
	readErrs(t, c, n)
	if _, err := c.r.ReadMsg(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the answers: %v, want EOF", err)
	}
}

func TestForwardSharesUpstreamAcrossClients(t *testing.T) {
	// The cache answers only once all four GETs are in, newest first.
	fc := startFake(t, "127.0.0.1:0", func(conn net.Conn) {
		r, w := proto.NewReader(conn), proto.NewWriter(conn)
		var reqs []*proto.Msg
		for len(reqs) < 4 {
			req, err := r.ReadMsg()
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			if w.WriteMsg(getResp(reqs[i])) != nil {
				return
			}
		}
		answerAll(conn)
	})
	_, lbAddr := startLB(t, time.Second, fc.addr())
	a, z := dialRaw(t, lbAddr), dialRaw(t, lbAddr)
	// Both clients use seqs 1 and 2.
	a.get(t, 1, "a1")
	a.get(t, 2, "a2")
	z.get(t, 1, "z1")
	z.get(t, 2, "z2")
	for _, tc := range []struct {
		c    *rawClient
		name string
	}{{a, "a"}, {z, "z"}} {
		for _, want := range []uint64{2, 1} { // out of order
			m := tc.c.read(t)
			wantVal := "v:" + tc.name + string(rune('0'+want))
			if m.Type != proto.MsgGetResp || m.Seq != want || string(m.Value) != wantVal {
				t.Fatalf("client %s: got %v seq %d %q, want seq %d %q",
					tc.name, m.Type, m.Seq, m.Value, want, wantVal)
			}
		}
	}
	if n := fc.conns.Load(); n != 1 {
		t.Errorf("upstream conns = %d, want 1", n)
	}
}

func TestForwardConcurrentClients(t *testing.T) {
	// Several pipelined client conns, each with several callers, share
	// the two upstream conns; every caller must get its own key back.
	c0 := startFake(t, "127.0.0.1:0", answerAll)
	c1 := startFake(t, "127.0.0.1:0", answerAll)
	_, lbAddr := startLB(t, time.Second, c0.addr(), c1.addr())
	const conns, callers, gets = 3, 8, 100
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		cl := client.New(lbAddr, client.Options{})
		defer cl.Close()
		for j := 0; j < callers; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < gets; n++ {
					key := fmt.Sprintf("k%d-%d-%d", i, j, n)
					v, _, err := cl.Get(key)
					if err != nil || string(v) != "v:"+key {
						t.Errorf("Get(%q) = %q, %v", key, v, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if n0, n1 := c0.conns.Load(), c1.conns.Load(); n0 != 1 || n1 != 1 {
		t.Errorf("upstream conns = %d, %d, want one per cache", n0, n1)
	}
}

func TestForwardDropsUnknownSeq(t *testing.T) {
	fc := startFake(t, "127.0.0.1:0", func(conn net.Conn) {
		r, w := proto.NewReader(conn), proto.NewWriter(conn)
		for {
			req, err := r.ReadMsg()
			if err != nil {
				return
			}
			stray := getResp(req)
			stray.Seq += 1 << 40
			if w.WriteMsg(stray) != nil || w.WriteMsg(getResp(req)) != nil {
				return
			}
		}
	})
	b, lbAddr := startLB(t, time.Second, fc.addr())
	c := dialRaw(t, lbAddr)
	for seq := uint64(1); seq <= 2; seq++ {
		c.get(t, seq, "k")
		if m := c.read(t); m.Type != proto.MsgGetResp || m.Seq != seq || string(m.Value) != "v:k" {
			t.Fatalf("GET %d: %v seq %d %q %q", seq, m.Type, m.Seq, m.Value, m.Err)
		}
	}
	if n := fc.conns.Load(); n != 1 {
		t.Errorf("upstream conns = %d, want 1: the stray frame broke the conn", n)
	}
	st := b.StatsMap()
	if st["reads"] != 2 || st["errors"] != 0 || b.readRTT.Count() != 2 {
		t.Errorf("reads %d errors %d read_rtt samples %d, want 2 0 2",
			st["reads"], st["errors"], b.readRTT.Count())
	}
}

func TestForwardTimeoutDropsLateResponse(t *testing.T) {
	// The cache answers the first GET only once the test saw it time
	// out, then serves normally.
	late := make(chan struct{})
	fc := startFake(t, "127.0.0.1:0", func(conn net.Conn) {
		r, w := proto.NewReader(conn), proto.NewWriter(conn)
		req, err := r.ReadMsg()
		if err != nil {
			return
		}
		<-late
		if w.WriteMsg(getResp(req)) != nil {
			return
		}
		answerAll(conn)
	})
	b, err := New(Config{StoreAddr: "127.0.0.1:1", CacheAddrs: []string{fc.addr()}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	b.fwdTimeout = 40 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln) //nolint:errcheck
	defer b.Close()
	c := dialRaw(t, ln.Addr().String())
	c.get(t, 1, "slow")
	if m := c.read(t); m.Type != proto.MsgErr || m.Seq != 1 {
		t.Fatalf("slow GET: %v seq %d, want MsgErr seq 1", m.Type, m.Seq)
	}
	if e := b.StatsMap()["errors"]; e != 1 {
		t.Errorf("errors = %d, want 1", e)
	}
	// The late answer to seq 1 is dropped; the next GET gets its own.
	close(late)
	c.get(t, 2, "fast")
	if m := c.read(t); m.Type != proto.MsgGetResp || m.Seq != 2 || string(m.Value) != "v:fast" {
		t.Fatalf("next GET: %v seq %d %q", m.Type, m.Seq, m.Value)
	}
	if n := fc.conns.Load(); n != 1 {
		t.Errorf("upstream conns = %d, want 1", n)
	}
}

func TestConnInflightBoundsForwardedGETs(t *testing.T) {
	const extra = 10
	got, release := make(chan struct{}, maxConnInflight+extra), make(chan struct{})
	defer close(release)
	fc := startFake(t, "127.0.0.1:0", holdN(maxConnInflight+extra, got, release))
	_, lbAddr := startLB(t, 20*time.Millisecond, fc.addr())
	c := dialRaw(t, lbAddr)
	for seq := uint64(1); seq <= maxConnInflight+extra; seq++ {
		if err := c.w.WriteMsgBuffered(&proto.Msg{Type: proto.MsgGet, Seq: seq, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitN(t, got, maxConnInflight)
	select {
	case <-got:
		t.Fatalf("more than maxConnInflight=%d GETs forwarded from one conn", maxConnInflight)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestMalformedGETCounted(t *testing.T) {
	fc := startFake(t, "127.0.0.1:0", answerAll)
	b, lbAddr := startLB(t, time.Second, fc.addr())
	c := dialRaw(t, lbAddr)
	// A GET whose key length (100) overruns its 3-byte key.
	frame := []byte{0, 0, 0, 14, byte(proto.MsgGet), 0, 0, 0, 0, 0, 0, 0, 1, 0, 100, 'a', 'b', 'c'}
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := c.r.ReadMsg(); !errors.Is(err, io.EOF) {
		t.Fatalf("malformed GET answered: %v, want the conn closed", err)
	}
	if n := b.StatsMap()["malformed_frames"]; n != 1 {
		t.Errorf("malformed_frames = %d, want 1", n)
	}
	if fc.conns.Load() != 0 {
		t.Error("malformed GET was forwarded")
	}
}
