package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"freshcache"
	"freshcache/internal/oracle"
)

// failoverReport is the machine-readable record of a kill-a-store run,
// alongside BENCH_pipeline.json and BENCH_reshard.json.
type failoverReport struct {
	Benchmark    string  `json:"benchmark"`
	Generated    string  `json:"generated"`
	TBoundMS     float64 `json:"t_bound_ms"`
	CrashBoundMS float64 `json:"crash_bound_ms"`
	LeaseMS      float64 `json:"lease_ms"`
	Replicas     int     `json:"replicas"`
	Workers      int     `json:"workers"`
	Keys         int     `json:"keys"`
	DurationS    float64 `json:"duration_s"`
	KillAtS      float64 `json:"kill_at_s"`
	PromotedAtS  float64 `json:"promoted_at_s"`
	VictimShare  float64 `json:"victim_share"` // fraction of keys the victim owned
	LostWrites   int     `json:"lost_writes"`
	loadTotals
	// NodeMetrics is each node's end-of-run stats snapshot (the same
	// registries /metrics renders), keyed by role — the failover
	// counters and replication lag land in the recorded artifact.
	NodeMetrics map[string]map[string]uint64 `json:"node_metrics,omitempty"`
}

// failoverBench boots a replicated (R=2) 3-store/2-cache/1-LB cluster
// on loopback with the lease-based failure detector armed, drives
// mixed load, kills one store halfway through, and records the
// throughput / staleness trajectory through the automatic failover.
func failoverBench(workers int, benchtime time.Duration, tBound float64, jsonPath string) error {
	T := time.Duration(tBound * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	lease := 400 * time.Millisecond
	// The crash bound: the dead store can take one un-flushed batch
	// interval of invalidates with it, and the disconnect deadline
	// caps the resident tail at kill-time + T.
	crashBound := 2 * T
	if benchtime < 6*T {
		benchtime = 6 * T
	}
	quiet := log.New(io.Discard, "", 0)

	// Store listeners first (the coordinator's ring needs the
	// addresses), then the coordinator, then the heartbeating stores.
	const nStores = 3
	storeLns := make([]net.Listener, nStores)
	storeAddrs := make([]string, nStores)
	for i := range storeLns {
		ln, addr, err := listen()
		if err != nil {
			return err
		}
		storeLns[i], storeAddrs[i] = ln, addr
	}
	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: storeAddrs, Replicas: 2, LeaseInterval: lease, Logger: quiet,
	})
	if err != nil {
		return err
	}
	coLn, coAddr, err := listen()
	if err != nil {
		return err
	}
	go co.Serve(coLn) //nolint:errcheck
	defer co.Close()

	stores := make([]*freshcache.StoreServer, nStores)
	for i := range stores {
		stores[i] = freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr: coAddr, AdvertiseAddr: storeAddrs[i],
			HeartbeatInterval: lease / 8,
		})
		go stores[i].Serve(storeLns[i]) //nolint:errcheck
		defer stores[i].Close()
	}

	var cacheAddrs []string
	for i := 0; i < 2; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: coAddr, T: T, Name: fmt.Sprintf("cache-%d", i),
			Logger: quiet, WatchInterval: 25 * time.Millisecond,
			RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		ln, addr, err := listen()
		if err != nil {
			return err
		}
		go ca.Serve(ln) //nolint:errcheck
		defer ca.Close()
		cacheAddrs = append(cacheAddrs, addr)
	}
	balancer, err := freshcache.NewLoadBalancer(freshcache.LBConfig{
		ClusterAddr: coAddr, CacheAddrs: cacheAddrs,
		WatchInterval: 25 * time.Millisecond, Logger: quiet,
	})
	if err != nil {
		return err
	}
	lbLn, lbAddr, err := listen()
	if err != nil {
		return err
	}
	go balancer.Serve(lbLn) //nolint:errcheck
	defer balancer.Close()

	const nkeys = 256
	// Load through the LB; request errors during the detection window
	// are expected and counted.
	load, err := oracle.Start(oracle.Config{Addr: lbAddr, Keys: nkeys, Readers: workers, Bound: crashBound})
	if err != nil {
		return err
	}
	start := load.Started()

	// Victim accounting, then the mid-run kill.
	r, err := freshcache.NewRing(storeAddrs, 0)
	if err != nil {
		return err
	}
	victimOwned := 0
	for _, key := range load.Keys() {
		if r.OwnerAddr(key) == storeAddrs[0] {
			victimOwned++
		}
	}
	half := benchtime / 2
	time.Sleep(half)
	killAt := time.Since(start)
	stores[0].Close()

	// Wait for the automatic promotion (no operator action).
	promotedAt := time.Duration(0)
	deadline := time.Now().Add(10 * lease)
	for {
		if len(co.RingInfo().Nodes) == nStores-1 {
			promotedAt = time.Since(start)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failure detector never promoted (ring %v)", co.RingInfo().Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	time.Sleep(benchtime - half)
	res := load.Stop()
	time.Sleep(crashBound)
	lost, lostErr := load.Audit()

	report := failoverReport{
		Benchmark:    "kill-store-failover",
		Generated:    time.Now().UTC().Format(time.RFC3339),
		TBoundMS:     float64(T) / float64(time.Millisecond),
		CrashBoundMS: float64(crashBound) / float64(time.Millisecond),
		LeaseMS:      float64(lease) / float64(time.Millisecond),
		Replicas:     2,
		Workers:      workers,
		Keys:         nkeys,
		DurationS:    time.Since(start).Seconds(),
		KillAtS:      killAt.Seconds(),
		PromotedAtS:  promotedAt.Seconds(),
		VictimShare:  float64(victimOwned) / float64(nkeys),
		LostWrites:   lost,
		loadTotals:   newLoadTotals(res),
	}
	report.NodeMetrics = map[string]map[string]uint64{
		"coordinator": co.Metrics().StatsMap(),
		"lb":          balancer.StatsMap(),
	}
	for i, st := range stores {
		report.NodeMetrics[fmt.Sprintf("store-%d", i)] = st.Metrics().StatsMap()
	}

	if err := report.printTrajectory("2T"); err != nil {
		return err
	}
	fmt.Printf("kill at %.2fs, promoted at %.2fs (detection %.0fms, lease %.0fms), victim owned %.3f of keys\n",
		report.KillAtS, report.PromotedAtS,
		(report.PromotedAtS-report.KillAtS)*1000, report.LeaseMS, report.VictimShare)
	fmt.Printf("totals: %d reads, %d writes, %d errors, %d reads staler than 2T, %d lost writes\n",
		report.TotalReads, report.TotalWrites, report.TotalErrors, report.Violations, report.LostWrites)
	if report.Violations > 0 || report.LostWrites > 0 {
		return fmt.Errorf("failover broke the guarantee: %d staleness violations (first: %v), %d lost writes (first: %v)",
			report.Violations, res.FirstViolation, report.LostWrites, lostErr)
	}

	if jsonPath != "" {
		return writeReport(jsonPath, report)
	}
	return nil
}
