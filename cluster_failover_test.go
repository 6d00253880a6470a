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

// failoverCluster is a replicated coordinator-managed deployment:
// N heartbeating stores under replication factor R, M caches and one
// LB, with the coordinator's lease-based failure detector armed.
type failoverCluster struct {
	stores     []*freshcache.StoreServer
	storeAddrs []string
	caches     []*freshcache.CacheServer
	lb         *freshcache.LoadBalancer
	lbAddr     string
	coord      *freshcache.Coordinator
	coordAddr  string
}

func startFailoverCluster(t *testing.T, T, lease time.Duration, nStores, replicas, nCaches int) *failoverCluster {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	cl := &failoverCluster{}

	// Store listeners first: the coordinator's initial ring needs the
	// addresses, and the stores need the coordinator to heartbeat.
	lns := make([]net.Listener, nStores)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		cl.storeAddrs = append(cl.storeAddrs, ln.Addr().String())
	}
	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: cl.storeAddrs, Replicas: replicas,
		LeaseInterval: lease, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(cln) //nolint:errcheck
	t.Cleanup(func() { co.Close() })
	cl.coord = co
	cl.coordAddr = cln.Addr().String()

	for i, ln := range lns {
		st := freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr:       cl.coordAddr,
			AdvertiseAddr:     cl.storeAddrs[i],
			HeartbeatInterval: lease / 8,
		})
		go st.Serve(ln) //nolint:errcheck
		t.Cleanup(func() { st.Close() })
		cl.stores = append(cl.stores, st)
	}

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
		caLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ca.Serve(caLn) //nolint:errcheck
		t.Cleanup(func() { ca.Close() })
		cl.caches = append(cl.caches, ca)
		cacheAddrs = append(cacheAddrs, caLn.Addr().String())
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

	// Wait until every cache subscribed to every store and every store
	// learned the ring (heartbeat anti-entropy).
	for i := range cl.stores {
		deadline := time.Now().Add(5 * time.Second)
		for {
			sm := storeStats(t, cl.storeAddrs[i])
			if sm["subscribers"] >= uint64(nCaches) && sm["ring_epoch"] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("store %d never became ready (stats %v)", i, sm)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return cl
}

// TestFailoverUnderLoad is the acceptance test of automatic failover:
// in a 3-store (R=2) / 2-cache / 1-LB cluster under concurrent
// read/write load, one store is killed mid-traffic. The lease-based
// failure detector must promote the surviving replicas within a few
// lease intervals, no acknowledged write may be lost, request errors
// must be confined to the detection window, and no read may observe
// data staler than the crash bound (2T: the killed store can take up
// to one un-flushed batch interval of invalidates with it, and the
// disconnect deadline caps the resident tail at kill-time + T).
func TestFailoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster test")
	}
	const (
		T     = 500 * time.Millisecond
		lease = 400 * time.Millisecond
		nkeys = 90
		// grace absorbs scheduler and batch-tick jitter on loaded CI
		// machines.
		grace = 300 * time.Millisecond
		// crashBound is the staleness bound asserted across the kill:
		// one batch interval the dead store may never have flushed,
		// plus the disconnect-deadline tail of at most T.
		crashBound = 2 * T
	)
	cl := startFailoverCluster(t, T, lease, 3, 2, 2)

	load, err := oracle.Start(oracle.Config{Addr: cl.lbAddr, Keys: nkeys, Readers: 4, Bound: crashBound + grace})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { load.Stop() })

	// Let the cluster settle under load (replica syncs complete fast;
	// every acked write is on its replica by construction), then kill
	// one store outright.
	time.Sleep(3 * T)
	victim := 0
	victimAddr := cl.storeAddrs[victim]
	killAt := time.Now()
	cl.stores[victim].Close()

	// Automatic promotion within a few lease intervals.
	var promotedAt time.Time
	deadline := time.Now().Add(10 * lease)
	for {
		ri := cl.coord.RingInfo()
		if len(ri.Nodes) == 2 {
			promotedAt = time.Now()
			for _, n := range ri.Nodes {
				if n == victimAddr {
					t.Fatalf("failover ring still contains the victim: %v", ri.Nodes)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never failed over the killed store (ring %v)", cl.coord.RingInfo().Nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d := promotedAt.Sub(killAt); d > 4*lease {
		t.Errorf("promotion took %v, want within ~%v of the kill", d, 4*lease)
	}

	// Every router swaps to the failover epoch.
	deadline = time.Now().Add(5 * time.Second)
	wantEpoch := cl.coord.RingInfo().Epoch
	for {
		swapped := storeStats(t, cl.lbAddr)["ring_epoch"] >= wantEpoch
		for _, ca := range cl.caches {
			swapped = swapped && ca.StatsMap()["ring_epoch"] >= wantEpoch
		}
		if swapped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("routers never swapped to the failover ring epoch")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Serve well past the failover, then stop the load.
	time.Sleep(4 * T)
	res := load.Stop()
	if res.Violations > 0 {
		t.Fatalf("load failed across the failover: %d violations (first: %v)", res.Violations, res.FirstViolation)
	}
	if res.Reads < 100 {
		t.Fatalf("only %d validated reads; load never ran", res.Reads)
	}
	// Errors are transient: none after the routers settled on the new
	// ring. (Allow the settle window: promotion + watcher tick + one
	// in-flight request timeout's worth of slack.)
	settle := promotedAt.Add(time.Second)
	if res.LastError.After(settle) {
		t.Errorf("request errors continued %v past promotion (last at %v, settle %v)",
			res.LastError.Sub(promotedAt), res.LastError, settle)
	}
	t.Logf("failover: promotion %v after kill, %d validated reads, %d transient errors",
		promotedAt.Sub(killAt), res.Reads, res.Errors)

	// No acknowledged write lost: after quiescing past the staleness
	// window, every key reads back at least its last acknowledged write.
	time.Sleep(crashBound + grace)
	if lost, err := load.Audit(); lost > 0 {
		t.Errorf("%d keys lost an acknowledged write (first: %v)", lost, err)
	}
}
