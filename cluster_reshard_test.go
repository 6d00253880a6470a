package freshcache_test

import (
	"fmt"
	"io"
	"log"
	"net"
	"testing"
	"time"

	"freshcache"
	"freshcache/internal/oracle"
)

// reshardCluster is a live coordinator-managed deployment: N stores,
// M caches and one LB, all bootstrapping their store ring from the
// coordinator and watching it for epoch changes.
type reshardCluster struct {
	stores     []*freshcache.StoreServer
	storeAddrs []string
	caches     []*freshcache.CacheServer
	lb         *freshcache.LoadBalancer
	lbAddr     string
	coord      *freshcache.Coordinator
	coordAddr  string
}

func (cl *reshardCluster) startStore(t *testing.T, i int, T time.Duration) string {
	t.Helper()
	st := freshcache.NewStoreServer(freshcache.StoreConfig{
		T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: log.New(io.Discard, "", 0),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go st.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { st.Close() })
	cl.stores = append(cl.stores, st)
	cl.storeAddrs = append(cl.storeAddrs, ln.Addr().String())
	return ln.Addr().String()
}

func startReshardCluster(t *testing.T, T time.Duration, nStores, nCaches int) *reshardCluster {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	cl := &reshardCluster{}
	for i := 0; i < nStores; i++ {
		cl.startStore(t, i, T)
	}

	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: cl.storeAddrs, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { co.Close() })
	cl.coord = co
	cl.coordAddr = ln.Addr().String()

	var cacheAddrs []string
	for i := 0; i < nCaches; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr:   cl.coordAddr,
			T:             T,
			Name:          fmt.Sprintf("cache-%d", i),
			Logger:        quiet,
			RetryInterval: 20 * time.Millisecond,
			WatchInterval: 25 * time.Millisecond,
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
		cl.caches = append(cl.caches, ca)
		cacheAddrs = append(cacheAddrs, cln.Addr().String())
	}

	balancer, err := freshcache.NewLoadBalancer(freshcache.LBConfig{
		ClusterAddr: cl.coordAddr, CacheAddrs: cacheAddrs,
		WatchInterval: 25 * time.Millisecond, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go balancer.Serve(lln) //nolint:errcheck
	t.Cleanup(func() { balancer.Close() })
	cl.lb = balancer
	cl.lbAddr = lln.Addr().String()

	// Wait until every cache is subscribed to every store shard.
	for i := range cl.stores {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if storeStats(t, cl.storeAddrs[i])["subscribers"] >= uint64(nCaches) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("store %d never saw %d subscribers", i, nCaches)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return cl
}

// TestLiveReshardUnderLoad is the acceptance test of dynamic
// membership: a third store joins a live 2-store/2-cache/1-LB cluster
// under concurrent read/write load. Only the moved key fraction
// (≈1/3, within 2x of ideal) migrates, the caches serve throughout
// (no read errors), no read observes data staler than the bound
// across the handoff, and after the dust settles every key's version
// matches the authority of its new owner.
func TestLiveReshardUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster test")
	}
	const (
		T     = 500 * time.Millisecond
		nkeys = 90
		// grace absorbs scheduler and batch-tick jitter on loaded CI
		// machines; the staleness assertion is T + grace.
		grace = 300 * time.Millisecond
	)
	cl := startReshardCluster(t, T, 2, 2)

	load, err := oracle.Start(oracle.Config{Addr: cl.lbAddr, Keys: nkeys, Readers: 4, Bound: T + grace})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { load.Stop() })

	// Let the cluster serve under load for a bit, then join the third
	// store through the coordinator's wire protocol, mid-traffic.
	time.Sleep(4 * T / 2)
	oldRing := cl.caches[0].Ring()
	joinAddr := cl.startStore(t, 2, T)
	cc := freshcache.NewClient(cl.coordAddr, freshcache.ClientOptions{
		MaxAttempts: 1, RequestTimeout: time.Minute,
	})
	ri, err := cc.Join(joinAddr)
	cc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Epoch != 2 || len(ri.Nodes) != 3 {
		t.Fatalf("published ring: %+v", ri)
	}

	// Every router must observe the new epoch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lbStats := storeStats(t, cl.lbAddr)
		swapped := lbStats["ring_epoch"] == 2
		for _, ca := range cl.caches {
			swapped = swapped && ca.StatsMap()["ring_epoch"] == 2
		}
		if swapped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("routers never swapped to ring epoch 2")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Serve across the handoff and past the deadline window.
	time.Sleep(3 * T)
	res := load.Stop()
	if res.Errors > 0 || res.Violations > 0 {
		t.Fatalf("load failed across the handoff: %d errors, %d violations (first: %v)",
			res.Errors, res.Violations, res.FirstViolation)
	}
	if res.Reads < 100 {
		t.Fatalf("only %d validated reads; load never ran", res.Reads)
	}

	// Only the moved fraction migrates: the joiner holds exactly the
	// keys the new ring assigns to it, and that is within 2x of the
	// ideal 1/3 share.
	newRing := cl.caches[0].Ring()
	keys := load.Keys()
	moved := 0
	for _, key := range keys {
		if oldRing.OwnerAddr(key) != newRing.OwnerAddr(key) {
			if got := newRing.OwnerAddr(key); got != joinAddr {
				t.Fatalf("key %q moved to %s, not the joiner", key, got)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(nkeys)
	if frac < 1.0/6 || frac > 2.0/3 {
		t.Errorf("moved fraction %.3f outside [1/6, 2/3] of the keyspace", frac)
	}
	if got := cl.stores[2].Authority().Len(); got != moved {
		t.Errorf("joiner authority holds %d keys, ring moves %d", got, moved)
	}

	// Quiesce, then verify every key end to end against the authority
	// of its current owner: version and value must match exactly.
	time.Sleep(3 * T)
	c := freshcache.NewClient(cl.lbAddr, freshcache.ClientOptions{})
	defer c.Close()
	for _, key := range keys {
		v, ver, err := c.Get(key)
		if err != nil {
			t.Fatalf("post-reshard get %q: %v", key, err)
		}
		owner := newRing.IndexOf(newRing.OwnerAddr(key))
		av, aver, ok := cl.stores[owner].Authority().Get(key)
		if !ok {
			t.Fatalf("key %q missing at its owner (store %d)", key, owner)
		}
		if ver != aver || string(v) != string(av) {
			t.Errorf("key %q: read v%d %q, authority has v%d %q", key, ver, v, aver, av)
		}
	}
}
