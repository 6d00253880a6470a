package cache

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"testing"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
	"freshcache/internal/store"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// harness wires one store and one cache node on ephemeral ports.
type harness struct {
	store *store.Server
	cache *Server
	// storeAddr is the real store; cacheAddr the cache's client port.
	storeAddr, cacheAddr string
}

func startHarness(t *testing.T, T time.Duration, engineCosts costmodel.Costs, capacity int) *harness {
	t.Helper()
	st := store.New(store.Config{T: T, Engine: core.Config{Costs: engineCosts}, Logger: quietLogger()})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	t.Cleanup(func() { st.Close() })

	ca, err := New(Config{
		StoreAddr: sln.Addr().String(),
		Capacity:  capacity,
		T:         T,
		Name:      "test-cache",
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { ca.Close() })

	return &harness{
		store:     st,
		cache:     ca,
		storeAddr: sln.Addr().String(),
		cacheAddr: cln.Addr().String(),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCacheAsideFlow(t *testing.T) {
	h := startHarness(t, 50*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	// Write through the cache: forwarded to the store.
	if _, err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// First read: cold miss, filled from store.
	val, _, err := c.Get("k")
	if err != nil || string(val) != "v1" {
		t.Fatalf("read 1: %q %v", val, err)
	}
	// Second read: hit.
	if _, _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	sm := h.cache.StatsMap()
	if sm["cold_misses"] != 1 || sm["hits"] != 1 {
		t.Errorf("cold=%d hits=%d", sm["cold_misses"], sm["hits"])
	}
	if _, _, err := c.Get("absent"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("absent key: %v", err)
	}
}

func TestUpdatePushRefreshesCache(t *testing.T) {
	// Update-leaning costs: writes propagate as value pushes.
	h := startHarness(t, 30*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	c.Put("k", []byte("v1")) //nolint:errcheck
	c.Get("k")               //nolint:errcheck // make resident
	c.Put("k", []byte("v2")) //nolint:errcheck

	waitFor(t, 5*time.Second, func() bool {
		return h.cache.StatsMap()["updates_applied"] > 0
	}, "update push")

	val, _, err := c.Get("k")
	if err != nil || string(val) != "v2" {
		t.Fatalf("after update push: %q %v", val, err)
	}
	// That read must have been a hit: the push refreshed the copy.
	sm := h.cache.StatsMap()
	if sm["stale_misses"] != 0 {
		t.Errorf("stale_misses = %d, update push should avoid misses", sm["stale_misses"])
	}
}

func TestInvalidatePushForcesRefetch(t *testing.T) {
	// Invalidate-leaning costs (cu huge).
	h := startHarness(t, 30*time.Millisecond, costmodel.Fixed(2, 0.25, 100), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	c.Put("k", []byte("v1")) //nolint:errcheck
	c.Get("k")               //nolint:errcheck
	c.Put("k", []byte("v2")) //nolint:errcheck

	waitFor(t, 5*time.Second, func() bool {
		return h.cache.StatsMap()["invalidates_applied"] > 0
	}, "invalidate push")

	val, _, err := c.Get("k")
	if err != nil || string(val) != "v2" {
		t.Fatalf("after invalidate: %q %v", val, err)
	}
	sm := h.cache.StatsMap()
	if sm["stale_misses"] == 0 {
		t.Error("expected a stale miss after invalidation")
	}
}

// TestBoundedStalenessEndToEnd is the live-system counterpart of the
// simulator's freshness audit: any read issued more than T (plus
// scheduling slack) after a write must return that write's value.
func TestBoundedStalenessEndToEnd(t *testing.T) {
	const T = 40 * time.Millisecond
	h := startHarness(t, T, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := c.Put("k", []byte(want)); err != nil {
			t.Fatal(err)
		}
		c.Get("k") //nolint:errcheck // keep the key resident
		// Wait well past the bound: batch interval + delivery slack.
		time.Sleep(3 * T)
		val, _, err := c.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if string(val) != want {
			t.Fatalf("iteration %d: read %q more than T after writing %q", i, val, want)
		}
	}
}

// proxy is a byte-level TCP forwarder whose connections can be severed to
// inject subscription failures.
type proxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
	paused bool
	done   chan struct{}
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, target: target, done: make(chan struct{})}
	go p.run()
	t.Cleanup(p.stop)
	return p
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) run() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		paused := p.paused
		p.mu.Unlock()
		if paused {
			c.Close() // refuse while the outage is injected
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		go func() { io.Copy(up, c); up.Close() }() //nolint:errcheck
		go func() { io.Copy(c, up); c.Close() }()  //nolint:errcheck
	}
}

// sever kills all live proxied connections (the listener stays up, so
// reconnects succeed once unpaused).
func (p *proxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// setPaused toggles connection refusal.
func (p *proxy) setPaused(v bool) {
	p.mu.Lock()
	p.paused = v
	p.mu.Unlock()
}

func (p *proxy) stop() {
	p.ln.Close()
	p.sever()
	select {
	case <-p.done:
	default:
		close(p.done)
	}
}

func TestSubscriptionLossTriggersResync(t *testing.T) {
	const T = 30 * time.Millisecond
	st := store.New(store.Config{T: T, Engine: core.Config{Costs: costmodel.Fixed(2, 0.25, 1)}, Logger: quietLogger()})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	defer st.Close()

	px := newProxy(t, sln.Addr().String())
	ca, err := New(Config{
		StoreAddr: px.addr(), T: T, Name: "flaky", Logger: quietLogger(),
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	defer ca.Close()

	c := client.New(cln.Addr().String(), client.Options{})
	defer c.Close()

	// Establish a resident, fresh entry and a live subscription.
	c.Put("k", []byte("v1")) //nolint:errcheck
	c.Get("k")               //nolint:errcheck
	waitFor(t, 5*time.Second, func() bool {
		return ca.StatsMap()["batches_applied"] > 0
	}, "initial subscription")

	// Inject an outage long enough for epochs to advance, so the
	// reconnecting cache must detect the gap and resynchronize.
	px.setPaused(true)
	px.sever()
	// Meanwhile a write happens that the cache cannot hear about.
	c2 := client.New(sln.Addr().String(), client.Options{})
	defer c2.Close()
	c2.Put("k", []byte("v2")) //nolint:errcheck
	time.Sleep(5 * T)         // several flush epochs pass
	px.setPaused(false)

	waitFor(t, 10*time.Second, func() bool {
		sm := ca.StatsMap()
		return sm["resyncs"] > 0 && sm["batches_applied"] > 1
	}, "resync after reconnect")

	// After the resync the resident copy was conservatively invalidated,
	// so the next read refetches v2.
	val, _, err := c.Get("k")
	if err != nil || string(val) != "v2" {
		t.Fatalf("after resync: %q %v", val, err)
	}
	if ca.StatsMap()["disconnects"] == 0 {
		t.Error("disconnect not recorded")
	}
}

// gateProxy forwards cache→store bytes freely but holds store→cache
// bytes while gated, so a test can freeze a fill response in flight.
type gateProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	held   bool
	cond   *sync.Cond
}

func newGateProxy(t *testing.T, target string) *gateProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &gateProxy{ln: ln, target: target}
	g.cond = sync.NewCond(&g.mu)
	go g.run()
	t.Cleanup(func() { g.release(); ln.Close() })
	return g
}

func (g *gateProxy) addr() string { return g.ln.Addr().String() }

func (g *gateProxy) hold() {
	g.mu.Lock()
	g.held = true
	g.mu.Unlock()
}

func (g *gateProxy) release() {
	g.mu.Lock()
	g.held = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *gateProxy) wait() {
	g.mu.Lock()
	for g.held {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gateProxy) run() {
	for {
		c, err := g.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", g.target)
		if err != nil {
			c.Close()
			continue
		}
		go func() { io.Copy(up, c); up.Close() }() //nolint:errcheck
		go func() {
			defer c.Close()
			buf := make([]byte, 4096)
			for {
				n, err := up.Read(buf)
				if n > 0 {
					g.wait() // hold store→cache bytes while gated
					if _, werr := c.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// TestInvalidateRacingFillNotPoisoned reproduces the fill/invalidate
// race: a miss fill's response is frozen in flight while a write and
// its batched invalidate land. The late fill then installs a pre-write
// value — and because the store-side engine dedups further invalidates
// for the key until the next fill, nothing would ever repair the entry.
// The cache must install such an overtaken fill as stale so the next
// read refetches.
func TestInvalidateRacingFillNotPoisoned(t *testing.T) {
	st, sln := startShardedStore(t, 50*time.Millisecond, "shard-0")
	t.Cleanup(func() { st.Close() })
	gate := newGateProxy(t, sln.Addr().String())

	// The cache is not Serve()d: no subscription loop runs, so the only
	// batch traffic is what the test injects via applyBatch.
	ca, err := New(Config{StoreAddr: gate.addr(), T: time.Second,
		Name: "race-cache", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ca.Close() })

	direct := client.New(sln.Addr().String(), client.Options{})
	defer direct.Close()
	if _, err := direct.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Freeze the fill response in flight.
	gate.hold()
	type result struct {
		v   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, _, err := ca.Get("k")
		done <- result{v, err}
	}()
	// Wait until the store has served the fill (its response now sits at
	// the gate).
	waitFor(t, 5*time.Second, func() bool {
		sm, err := direct.Stats()
		return err == nil && sm["fills"] > 0
	}, "store-side fill")

	// The write and its invalidate overtake the frozen fill.
	if _, err := direct.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	ca.applyBatch(&proto.Msg{Type: proto.MsgBatch, Epoch: 1, Ops: []proto.BatchOp{
		{Kind: proto.BatchInvalidate, Key: "k"},
	}})

	gate.release()
	r := <-done
	if r.err != nil {
		t.Fatalf("racing fill: %v", r.err)
	}
	// The racing read may legitimately return v1 (the write is younger
	// than T), but the copy must not stick: the next read refetches v2.
	v, _, err := ca.Get("k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("after racing invalidate: %q %v (poisoned fill?)", v, err)
	}
}

// TestUpdateRacingFillNotPoisoned is the update-policy variant of the
// race above: an update push for a key that is not resident yet is
// dropped (the paper's update semantics), so a fill frozen in flight
// would install the pre-write value as fresh with nothing to repair it
// until the key's next write.
func TestUpdateRacingFillNotPoisoned(t *testing.T) {
	st, sln := startShardedStore(t, 50*time.Millisecond, "shard-0")
	t.Cleanup(func() { st.Close() })
	gate := newGateProxy(t, sln.Addr().String())

	ca, err := New(Config{StoreAddr: gate.addr(), T: time.Second,
		Name: "race-cache-upd", Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ca.Close() })

	direct := client.New(sln.Addr().String(), client.Options{})
	defer direct.Close()
	if _, err := direct.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	gate.hold()
	done := make(chan error, 1)
	go func() {
		_, _, err := ca.Get("k")
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool {
		sm, err := direct.Stats()
		return err == nil && sm["fills"] > 0
	}, "store-side fill")

	ver, err := direct.Put("k", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	ca.applyBatch(&proto.Msg{Type: proto.MsgBatch, Epoch: 1, Ops: []proto.BatchOp{
		{Kind: proto.BatchUpdate, Key: "k", Value: []byte("v2"), Version: ver},
	}})

	gate.release()
	if err := <-done; err != nil {
		t.Fatalf("racing fill: %v", err)
	}
	v, _, err := ca.Get("k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("after racing update: %q %v (poisoned fill?)", v, err)
	}
}

func TestCapacityEviction(t *testing.T) {
	h := startHarness(t, 50*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 128)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, []byte("v")) //nolint:errcheck
		c.Get(key)              //nolint:errcheck
	}
	sm := h.cache.StatsMap()
	if sm["evictions"] == 0 {
		t.Error("no evictions under capacity pressure")
	}
	if sm["resident"] > 256 {
		t.Errorf("resident = %d exceeds capacity slack", sm["resident"])
	}
}

func TestReadReportsFlow(t *testing.T) {
	h := startHarness(t, 25*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()

	c.Put("k", []byte("v")) //nolint:errcheck
	for i := 0; i < 20; i++ {
		c.Get("k") //nolint:errcheck
	}
	waitFor(t, 5*time.Second, func() bool {
		return h.cache.StatsMap()["read_reports_sent"] > 0
	}, "read report")
	// The store must have registered the report.
	sc := client.New(h.storeAddr, client.Options{})
	defer sc.Close()
	st, err := sc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["read_reports"] == 0 {
		t.Error("store saw no read reports")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty StoreAddr accepted")
	}
	if _, err := New(Config{StoreAddr: "a", StoreAddrs: []string{"b"}}); err == nil {
		t.Error("both StoreAddr and StoreAddrs accepted")
	}
	if _, err := New(Config{StoreAddrs: []string{"a", "a"}}); err == nil {
		t.Error("duplicate store addresses accepted")
	}
}

// waitSubscribed polls a store's stats until it reports a subscriber.
func waitSubscribed(t *testing.T, storeAddr string) {
	t.Helper()
	sc := client.New(storeAddr, client.Options{})
	defer sc.Close()
	waitFor(t, 5*time.Second, func() bool {
		st, err := sc.Stats()
		return err == nil && st["subscribers"] > 0
	}, "subscriber at "+storeAddr)
}

// startShardedStore boots one store shard on an ephemeral port.
func startShardedStore(t *testing.T, T time.Duration, shardID string) (*store.Server, net.Listener) {
	t.Helper()
	st := store.New(store.Config{T: T, ShardID: shardID,
		Engine: core.Config{Costs: costmodel.Fixed(2, 0.25, 1)}, Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(ln) //nolint:errcheck
	return st, ln
}

// TestMultiShardStoreLossScopedInvalidation is the per-shard bounded
// staleness contract: when one authority shard dies, only the resident
// keys that shard owns fall back to the disconnect deadline (and go
// stale past it); keys owned by the surviving shard keep serving under
// live push freshness the whole time.
func TestMultiShardStoreLossScopedInvalidation(t *testing.T) {
	const T = 500 * time.Millisecond
	st0, ln0 := startShardedStore(t, T, "shard-0")
	t.Cleanup(func() { st0.Close() })
	st1, ln1 := startShardedStore(t, T, "shard-1")
	t.Cleanup(func() { st1.Close() })

	ca, err := New(Config{
		StoreAddrs:    []string{ln0.Addr().String(), ln1.Addr().String()},
		T:             T,
		Name:          "sharded-cache",
		Logger:        quietLogger(),
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { ca.Close() })

	c := client.New(cln.Addr().String(), client.Options{})
	defer c.Close()

	// Make a spread of keys resident; the ring decides each key's owner.
	r := ca.Ring()
	var shard0Keys, shard1Keys []string
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if _, err := c.Put(key, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
		if r.Owner(key) == 0 {
			shard0Keys = append(shard0Keys, key)
		} else {
			shard1Keys = append(shard1Keys, key)
		}
	}
	if len(shard0Keys) == 0 || len(shard1Keys) == 0 {
		t.Fatalf("ring did not split keys: %d/%d", len(shard0Keys), len(shard1Keys))
	}
	// Both shards' writes must land on their own store.
	if st0.Authority().Len() != len(shard0Keys) || st1.Authority().Len() != len(shard1Keys) {
		t.Fatalf("authority split %d/%d, want %d/%d",
			st0.Authority().Len(), st1.Authority().Len(), len(shard0Keys), len(shard1Keys))
	}
	// Wait until both stores see the cache subscribed.
	waitSubscribed(t, ln0.Addr().String())
	waitSubscribed(t, ln1.Addr().String())

	// Kill shard 0. The cache must deadline exactly that shard's keys.
	killedAt := time.Now()
	st0.Close()
	waitFor(t, 5*time.Second, func() bool {
		return ca.StatsMap()["disconnects"] > 0 && ca.StatsMap()["keys_deadlined"] > 0
	}, "shard-0 disconnect fallback")

	now := time.Now()
	for _, key := range shard0Keys {
		e, found, _ := ca.KV().Get(key, now)
		if !found || e.ExpireAt.IsZero() {
			t.Fatalf("shard-0 key %q missing disconnect deadline (found=%v)", key, found)
		}
	}
	for _, key := range shard1Keys {
		e, found, fresh := ca.KV().Get(key, now)
		if !found || !e.ExpireAt.IsZero() || !fresh {
			t.Fatalf("shard-1 key %q was disturbed by shard-0 loss (found=%v fresh=%v exp=%v)",
				key, found, fresh, e.ExpireAt)
		}
	}

	// Within the deadline the dead shard's keys still serve from cache.
	if time.Since(killedAt) < T {
		if v, _, err := c.Get(shard0Keys[0]); err != nil || string(v) != "v1" {
			t.Fatalf("shard-0 key within deadline: %q %v", v, err)
		}
	}

	// The surviving shard still honors bounded staleness end to end.
	if _, err := c.Put(shard1Keys[0], []byte("v2")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * T)
	if v, _, err := c.Get(shard1Keys[0]); err != nil || string(v) != "v2" {
		t.Fatalf("surviving shard after bound: %q %v", v, err)
	}

	// Past the deadline the dead shard's keys are misses (and the fill
	// fails because its store is gone) — never silently stale data.
	if _, _, err := c.Get(shard0Keys[1]); err == nil {
		t.Fatal("shard-0 key served past its deadline with its store dead")
	}
}

// TestMultiShardEpochGapResyncScoped drives the epoch-gap path with two
// shards: one shard's subscription is severed while its epochs advance,
// so the reconnecting cache must resynchronize — invalidating only that
// shard's resident keys.
func TestMultiShardEpochGapResyncScoped(t *testing.T) {
	const T = 40 * time.Millisecond
	st0, ln0 := startShardedStore(t, T, "shard-0")
	t.Cleanup(func() { st0.Close() })
	st1, ln1 := startShardedStore(t, T, "shard-1")
	t.Cleanup(func() { st1.Close() })

	// Shard 0 is reached through a severable proxy; shard 1 directly.
	px := newProxy(t, ln0.Addr().String())
	ca, err := New(Config{
		StoreAddrs:    []string{px.addr(), ln1.Addr().String()},
		T:             T,
		Name:          "gap-cache",
		Logger:        quietLogger(),
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ca.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { ca.Close() })

	c := client.New(cln.Addr().String(), client.Options{})
	defer c.Close()

	r := ca.Ring()
	var shard0Keys, shard1Keys []string
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%03d", i)
		c.Put(key, []byte("v1")) //nolint:errcheck
		c.Get(key)               //nolint:errcheck
		if r.Owner(key) == 0 {
			shard0Keys = append(shard0Keys, key)
		} else {
			shard1Keys = append(shard1Keys, key)
		}
	}
	if len(shard0Keys) == 0 || len(shard1Keys) == 0 {
		t.Fatalf("ring did not split keys: %d/%d", len(shard0Keys), len(shard1Keys))
	}
	waitSubscribed(t, ln0.Addr().String())
	waitSubscribed(t, ln1.Addr().String())

	// Sever shard 0's channel and let several epochs pass so the
	// reconnect sees a gap.
	px.setPaused(true)
	px.sever()
	time.Sleep(5 * T)
	px.setPaused(false)

	waitFor(t, 10*time.Second, func() bool {
		return ca.StatsMap()["resyncs"] > 0
	}, "scoped resync after reconnect")

	// The resync invalidated shard 0's keys only; shard 1's stay fresh
	// (modulo any entries its own pushes legitimately invalidated, which
	// the write-free workload here rules out).
	now := time.Now()
	stale0 := 0
	for _, key := range shard0Keys {
		if _, found, fresh := ca.KV().Get(key, now); found && !fresh {
			stale0++
		}
	}
	if stale0 == 0 {
		t.Error("resync invalidated none of the gapped shard's keys")
	}
	for _, key := range shard1Keys {
		if _, found, fresh := ca.KV().Get(key, now); !found || !fresh {
			t.Fatalf("healthy shard's key %q invalidated by the other shard's resync", key)
		}
	}
	sm := ca.StatsMap()
	if got, want := sm["keys_resynced"], uint64(len(shard0Keys)); got > want {
		t.Errorf("keys_resynced = %d, want <= %d (scoped to one shard)", got, want)
	}
}

func TestCacheStatsAndPing(t *testing.T) {
	h := startHarness(t, 50*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 0)
	c := client.New(h.cacheAddr, client.Options{})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	sm, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sm["hits"]; !ok {
		t.Errorf("stats missing hits: %v", sm)
	}
}

func TestConcurrentClients(t *testing.T) {
	h := startHarness(t, 30*time.Millisecond, costmodel.Fixed(2, 0.25, 1), 0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client.New(h.cacheAddr, client.Options{MaxConns: 2})
			defer c.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%20)
				if i%5 == 0 {
					if _, err := c.Put(key, []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
						errs <- err
						return
					}
				} else if _, _, err := c.Get(key); err != nil && !errors.Is(err, client.ErrNotFound) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeCloseRace: Close may race a Serve that is just starting, and
// a Serve after Close returns net.ErrClosed at once, closing its
// listener, instead of accepting forever.
func TestServeCloseRace(t *testing.T) {
	h := startHarness(t, time.Hour, costmodel.Fixed(2, 0.25, 1), 0)
	newServer := func() *Server {
		s, err := New(Config{StoreAddr: h.storeAddr, T: time.Hour, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i := 0; i < 20; i++ {
		s := newServer()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ln) }()
		s.Close()
		if err := <-served; !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve racing Close returned %v", err)
		}
	}
	s := newServer()
	s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close returned %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Close left its listener open: %v", err)
	}
}
