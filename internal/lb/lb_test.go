package lb

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"testing"
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/costmodel"
	"freshcache/internal/proto"
	"freshcache/internal/store"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// startCluster wires store + n caches + lb on ephemeral ports.
func startCluster(t *testing.T, nCaches int) (lbAddr string, caches []*cache.Server, st *store.Server) {
	t.Helper()
	const T = 40 * time.Millisecond
	st = store.New(store.Config{T: T,
		Engine: core.Config{Costs: costmodel.Fixed(2, 0.25, 1)}, Logger: quietLogger()})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(sln) //nolint:errcheck
	t.Cleanup(func() { st.Close() })

	var cacheAddrs []string
	for i := 0; i < nCaches; i++ {
		ca, err := cache.New(cache.Config{
			StoreAddr: sln.Addr().String(), T: T,
			Name: fmt.Sprintf("cache-%d", i), Logger: quietLogger(),
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
		caches = append(caches, ca)
		cacheAddrs = append(cacheAddrs, cln.Addr().String())
	}

	b, err := New(Config{StoreAddr: sln.Addr().String(), CacheAddrs: cacheAddrs, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(bln) //nolint:errcheck
	t.Cleanup(func() { b.Close() })
	return bln.Addr().String(), caches, st
}

func TestReadWriteThroughLB(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	if _, err := c.Put("user:7", []byte("zoe")); err != nil {
		t.Fatal(err)
	}
	val, _, err := c.Get("user:7")
	if err != nil || string(val) != "zoe" {
		t.Fatalf("Get = %q %v", val, err)
	}
	if _, _, err := c.Get("ghost"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("ghost: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["reads"] != 2 || st["writes"] != 1 || st["caches"] != 2 {
		t.Errorf("lb stats: %v", st)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyAffinityRouting(t *testing.T) {
	lbAddr, caches, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()

	// Read the same key many times: exactly one cache should see it.
	c.Put("sticky", []byte("v")) //nolint:errcheck
	for i := 0; i < 20; i++ {
		if _, _, err := c.Get("sticky"); err != nil {
			t.Fatal(err)
		}
	}
	var served []uint64
	for _, ca := range caches {
		served = append(served, ca.StatsMap()["gets"])
	}
	if (served[0] == 0) == (served[1] == 0) {
		t.Errorf("key affinity broken: cache gets = %v", served)
	}
	total := served[0] + served[1]
	if total != 20 {
		t.Errorf("reads served = %d, want 20", total)
	}
}

func TestManyKeysSpreadAcrossCaches(t *testing.T) {
	lbAddr, caches, _ := startCluster(t, 2)
	c := client.New(lbAddr, client.Options{})
	defer c.Close()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, []byte("v")) //nolint:errcheck
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	a, b := caches[0].StatsMap()["gets"], caches[1].StatsMap()["gets"]
	if a == 0 || b == 0 {
		t.Errorf("load not spread: %d vs %d", a, b)
	}
}

// TestPushPropagatesToAllCaches covers the §5 replicated-cache concern:
// one store must deliver each freshness batch to every subscribed cache,
// so a key resident in several caches goes fresh everywhere within T.
func TestPushPropagatesToAllCaches(t *testing.T) {
	_, caches, st := startCluster(t, 3)
	// Make the key resident in EVERY cache by reading it directly from
	// each node (bypassing the LB's key affinity).
	var clients []*client.Client
	for _, ca := range caches {
		for ca.Addr() == nil { // Serve registers the listener asynchronously
			time.Sleep(time.Millisecond)
		}
		c := client.New(ca.Addr().String(), client.Options{})
		defer c.Close()
		clients = append(clients, c)
	}
	if _, err := clients[0].Put("shared", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if v, _, err := c.Get("shared"); err != nil || string(v) != "v1" {
			t.Fatalf("cache %d initial read: %q %v", i, v, err)
		}
	}
	// One write must reach all three caches by push.
	if _, err := clients[0].Put("shared", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, ca := range caches {
		for {
			sm := ca.StatsMap()
			if sm["updates_applied"] > 0 || sm["invalidates_applied"] > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cache %d never received the push", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i, c := range clients {
		if v, _, err := c.Get("shared"); err != nil || string(v) != "v2" {
			t.Fatalf("cache %d after push: %q %v", i, v, err)
		}
	}
	_ = st
}

func TestUnexpectedMessageAnswered(t *testing.T) {
	lbAddr, _, _ := startCluster(t, 1)
	conn, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	if err := w.WriteMsg(&proto.Msg{Type: proto.MsgSubscribe, Seq: 5, Key: "x"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	resp, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != proto.MsgErr || resp.Seq != 5 {
		t.Errorf("resp: %+v", resp)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{CacheAddrs: []string{"x"}}); err == nil {
		t.Error("missing store accepted")
	}
	if _, err := New(Config{StoreAddr: "x"}); err == nil {
		t.Error("missing caches accepted")
	}
}

// TestServeCloseRace: Close may race a Serve that is just starting, and
// a Serve after Close returns net.ErrClosed at once, closing its
// listener, instead of accepting forever.
func TestServeCloseRace(t *testing.T) {
	// Serve dials nothing up front, so the upstreams need not exist.
	newServer := func() *Server {
		s, err := New(Config{StoreAddr: "127.0.0.1:1", CacheAddrs: []string{"127.0.0.1:2"}, Logger: quietLogger()})
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
