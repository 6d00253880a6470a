package cache

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/costmodel"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
)

// readStats are the StatsMap keys a single-key read moves.
var readStats = []string{"gets", "hits", "stale_misses", "cold_misses",
	"deadline_expired", "near_misses", "served_age_samples"}

func statsDelta(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(readStats))
	for _, k := range readStats {
		d[k] = after[k] - before[k]
	}
	return d
}

// pendingReads returns the read counts not yet reported to the stores.
func (s *Server) pendingReads(key string) uint32 {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	return s.readCounts[key]
}

// A read answered on the read loop is counted exactly as the dispatch
// path counts it. Each step of a scripted sequence — fresh hit,
// near-miss hit, invalidated, deadline-expired, cold and absent — runs
// once over TCP (read loop, falling back to dispatch) and once through
// the in-process Get (dispatch path only); both must move the same
// counters by the same amounts, return the authoritative value, and
// report the same read counts to the store.
func TestReadLoopCountsLikeDispatch(t *testing.T) {
	const T = time.Hour // no pushes, no report ticks: the test drives both
	h := startHarness(t, T, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()
	ver, err := c.Put("k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	ca := h.cache
	// resident installs k with the given value and version, freshly
	// (a Delete first, so no earlier deadline carries over).
	resident := func(value string, version uint64) {
		ca.kv.Delete("k")
		ca.kv.Put("k", kv.Entry{Value: []byte(value), Version: version})
	}
	steps := []struct {
		name  string
		key   string
		setup func()
		want  map[string]uint64
		value string // "" means not found
	}{
		{"hit", "k", func() { resident("v1", ver) },
			map[string]uint64{"gets": 1, "hits": 1, "served_age_samples": 1}, "v1"},
		{"near-miss hit", "k", func() {
			resident("v1", ver)
			ca.kv.SetExpiry("k", time.Now().Add(T/20))
		}, map[string]uint64{"gets": 1, "hits": 1, "near_misses": 1, "served_age_samples": 1}, "v1"},
		{"invalidated", "k", func() {
			resident("old", ver-1)
			ca.kv.Invalidate("k")
		}, map[string]uint64{"gets": 1, "stale_misses": 1}, "v1"},
		{"deadline-expired", "k", func() {
			resident("old", ver-1)
			ca.kv.SetExpiry("k", time.Now().Add(-time.Millisecond))
		}, map[string]uint64{"gets": 1, "stale_misses": 1, "deadline_expired": 1}, "v1"},
		{"cold", "k", func() { ca.kv.Delete("k") },
			map[string]uint64{"gets": 1, "cold_misses": 1}, "v1"},
		{"absent", "ghost", func() {},
			map[string]uint64{"gets": 1, "cold_misses": 1}, ""},
	}
	paths := []struct {
		name string
		get  func(key string) ([]byte, uint64, error)
	}{
		{"read loop", c.Get},
		{"dispatch", ca.Get},
	}
	for _, p := range paths {
		for _, st := range steps {
			st.setup()
			before := ca.StatsMap()
			v, _, err := p.get(st.key)
			switch {
			case st.value == "" && !errors.Is(err, client.ErrNotFound):
				t.Errorf("%s, %s: err = %v, want not found", p.name, st.name, err)
			case st.value != "" && (err != nil || string(v) != st.value):
				t.Errorf("%s, %s: got %q, %v; want %q", p.name, st.name, v, err, st.value)
			}
			got := statsDelta(before, ca.StatsMap())
			for _, k := range readStats {
				if got[k] != st.want[k] {
					t.Errorf("%s, %s: %s moved by %d, want %d", p.name, st.name, k, got[k], st.want[k])
				}
			}
		}

		// The read report carries one read per GET.
		if n := ca.pendingReads("k"); n != 5 {
			t.Errorf("%s: pending read count for k = %d, want 5", p.name, n)
		}
		if n := ca.pendingReads("ghost"); n != 1 {
			t.Errorf("%s: pending read count for ghost = %d, want 1", p.name, n)
		}
		r0, _ := h.store.Engine().KeyFreq("k")
		reports := h.store.Metrics().StatsMap()["read_reports"]
		ca.flushReports()
		waitFor(t, 5*time.Second, func() bool {
			return h.store.Metrics().StatsMap()["read_reports"] > reports
		}, "read report at the store")
		if r1, _ := h.store.Engine().KeyFreq("k"); r1-r0 != 5 {
			t.Errorf("%s: store engine took %d reads of k from the report, want 5", p.name, r1-r0)
		}
	}
}

// rawConn is a client connection that pipelines hand-built frames.
type rawConn struct {
	conn net.Conn
	w    *proto.Writer
	r    *proto.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{conn: conn, w: proto.NewWriter(conn), r: proto.NewReader(conn)}
}

func (rc *rawConn) send(t *testing.T, msgs ...*proto.Msg) {
	t.Helper()
	for _, m := range msgs {
		if err := rc.w.WriteMsgBuffered(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (rc *rawConn) recv(t *testing.T, within time.Duration) *proto.Msg {
	t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(within)) //nolint:errcheck
	m, err := rc.r.ReadMsg()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return m
}

// A miss fill never runs on the read loop: with a miss's fill held at
// the store, hits pipelined behind it on the same connection are all
// answered first, and the miss answers once the store's response is
// let through.
func TestMissFillDoesNotBlockPipelinedHits(t *testing.T) {
	// T is long enough that no push lands mid-test: a pushed invalidate
	// would turn a warmed hit into a miss held at the gate.
	st, sln := startShardedStore(t, time.Hour, "shard-0")
	t.Cleanup(func() { st.Close() })
	gate := newGateProxy(t, sln.Addr().String())
	ca, err := New(Config{StoreAddr: gate.addr(), T: time.Hour,
		Name: "stall-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { ca.Close() })

	direct := client.New(sln.Addr().String(), client.Options{})
	defer direct.Close()
	const hits = 8
	hitKeys := make([]string, hits)
	for i := range hitKeys {
		hitKeys[i] = string(rune('a'+i)) + "-hot"
		if _, err := direct.Put(hitKeys[i], []byte(hitKeys[i])); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ca.Get(hitKeys[i]); err != nil { // warm: now resident
			t.Fatal(err)
		}
	}
	if _, err := direct.Put("miss", []byte("late")); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, cln.Addr().String())
	fills := func() uint64 { sm, _ := direct.Stats(); return sm["fills"] }
	before := fills()
	gate.hold()
	rc.send(t, &proto.Msg{Type: proto.MsgGet, Seq: 1, Key: "miss"})
	waitFor(t, 5*time.Second, func() bool { return fills() > before }, "the miss fill to reach the store")

	batch := make([]*proto.Msg, hits)
	for i, k := range hitKeys {
		batch[i] = &proto.Msg{Type: proto.MsgGet, Seq: uint64(i + 2), Key: k}
	}
	rc.send(t, batch...)
	for i := 0; i < hits; i++ {
		m := rc.recv(t, 5*time.Second)
		if m.Seq < 2 || m.Seq > hits+1 || m.Type != proto.MsgGetResp || string(m.Value) != hitKeys[m.Seq-2] {
			t.Fatalf("response %d while the miss is held: %+v, want a hit", i, m)
		}
	}

	gate.release()
	m := rc.recv(t, 5*time.Second)
	if m.Seq != 1 || m.Type != proto.MsgGetResp || string(m.Value) != "late" {
		t.Fatalf("miss response = %+v, want seq 1 %q", m, "late")
	}
}

// A traced fresh hit is served by the read loop inside its own span:
// the response carries exactly the cache's hop.
func TestTracedFreshHitCarriesCacheSpan(t *testing.T) {
	h := startHarness(t, time.Hour, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()
	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("k"); err != nil { // fill: k is now resident
		t.Fatal(err)
	}
	before := h.cache.StatsMap()
	const id uint64 = 0x5eed
	v, _, tr, err := c.GetTraced("k", id)
	if err != nil || string(v) != "v" {
		t.Fatalf("GetTraced = %q, %v", v, err)
	}
	if got := statsDelta(before, h.cache.StatsMap()); got["hits"] != 1 || got["gets"] != 1 {
		t.Fatalf("traced read was not one fresh hit: %v", got)
	}
	if tr == nil || tr.ID != id || len(tr.Spans) != 1 {
		t.Fatalf("trace = %+v, want ID %#x with one span", tr, id)
	}
	if s := tr.Spans[0]; s.Node != "cache:test-cache" || s.Dur <= 0 || s.Start <= 0 {
		t.Errorf("span = %+v, want a timed cache:test-cache hop", s)
	}
}

// A GET frame whose key overruns the frame counts once as malformed and
// closes the connection.
func TestMalformedGetFrameClosesConn(t *testing.T) {
	h := startHarness(t, time.Hour, costmodel.Fixed(2, 0.25, 1), 0)
	rc := dialRaw(t, h.cacheAddr)
	before := h.cache.StatsMap()["malformed_frames"]

	frame := binary.BigEndian.AppendUint32(nil, 1+8+2+3)
	frame = append(frame, byte(proto.MsgGet))
	frame = binary.BigEndian.AppendUint64(frame, 1)
	frame = binary.BigEndian.AppendUint16(frame, 50) // key length past the end
	frame = append(frame, "abc"...)
	if _, err := rc.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := rc.r.ReadMsg(); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a malformed GET: %v, want the conn closed", err)
	}
	// The count is taken before the conn closes, so EOF means it is final.
	if d := h.cache.StatsMap()["malformed_frames"] - before; d != 1 {
		t.Errorf("malformed_frames moved by %d, want 1", d)
	}
}
