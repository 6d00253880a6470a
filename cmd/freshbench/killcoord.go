package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"freshcache"
	"freshcache/internal/oracle"
)

// coordFailoverReport is the machine-readable record of a
// kill-the-coordinator-leader run, alongside BENCH_failover.json.
type coordFailoverReport struct {
	Benchmark     string  `json:"benchmark"`
	Generated     string  `json:"generated"`
	TBoundMS      float64 `json:"t_bound_ms"`
	CrashBoundMS  float64 `json:"crash_bound_ms"`
	LeaderLeaseMS float64 `json:"leader_lease_ms"`
	StoreLeaseMS  float64 `json:"store_lease_ms"`
	Coordinators  int     `json:"coordinators"`
	Replicas      int     `json:"replicas"`
	Workers       int     `json:"workers"`
	Keys          int     `json:"keys"`
	DurationS     float64 `json:"duration_s"`
	KillLeaderAtS float64 `json:"kill_leader_at_s"`
	NewLeaderAtS  float64 `json:"new_leader_at_s"`
	LeaderGapMS   float64 `json:"leader_gap_ms"`
	KillStoreAtS  float64 `json:"kill_store_at_s"`
	PromotedAtS   float64 `json:"promoted_at_s"`
	PreCrashEpoch uint64  `json:"pre_crash_epoch"`
	RestoredEpoch uint64  `json:"restored_epoch"`
	RejoinedEpoch uint64  `json:"rejoined_epoch"`
	LostWrites    int     `json:"lost_writes"`
	loadTotals
}

// coordFailoverBench boots a 3-coordinator replicated control plane
// over a replicated (R=2) 3-store/2-cache/1-LB data plane, drives mixed
// load, kills the coordinator LEADER a third of the way in (asserting a
// follower takes over within a few leader leases), kills a STORE at two
// thirds (asserting the new leader still runs the failure detector),
// and finally restarts the killed coordinator from its data directory,
// asserting it replays its persisted log to its pre-crash ring epoch
// and then catches up to the group. Bounded staleness (≤2T through a
// store crash) and zero lost acked writes must hold throughout — the
// control plane dying must never touch the data plane's guarantee.
func coordFailoverBench(workers int, benchtime time.Duration, tBound float64, jsonPath string) error {
	T := time.Duration(tBound * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	leaderLease := 300 * time.Millisecond
	storeLease := 400 * time.Millisecond
	crashBound := 2 * T
	if benchtime < 6*T {
		benchtime = 6 * T
	}
	quiet := log.New(io.Discard, "", 0)

	// Store listeners first (the initial ring needs the addresses), then
	// the coordinator group (whose peer list needs ITS addresses before
	// any member starts), then the heartbeating stores.
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

	const nCoords = 3
	coordLns := make([]net.Listener, nCoords)
	coordAddrs := make([]string, nCoords)
	dataDirs := make([]string, nCoords)
	for i := range coordLns {
		ln, addr, err := listen()
		if err != nil {
			return err
		}
		coordLns[i], coordAddrs[i] = ln, addr
		dir, err := os.MkdirTemp("", "freshbench-coord-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dataDirs[i] = dir
	}
	clusterSpec := strings.Join(coordAddrs, ",")

	coords := make([]*freshcache.Coordinator, nCoords)
	for i := range coords {
		co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
			Stores: storeAddrs, Replicas: 2,
			LeaseInterval: storeLease, Logger: quiet,
			SelfAddr: coordAddrs[i], Peers: coordAddrs,
			DataDir: dataDirs[i], LeaderLease: leaderLease,
		})
		if err != nil {
			return err
		}
		coords[i] = co
		go co.Serve(coordLns[i]) //nolint:errcheck
		defer co.Close()
	}

	// leaderIdx polls the group for a member that claims leadership with
	// a live majority lease.
	leaderIdx := func(timeout time.Duration) (int, error) {
		deadline := time.Now().Add(timeout)
		for {
			for i, co := range coords {
				if co == nil {
					continue
				}
				if _, isLeader := co.Leader(); isLeader {
					return i, nil
				}
			}
			if time.Now().After(deadline) {
				return -1, fmt.Errorf("no coordinator leader within %v", timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := leaderIdx(20 * leaderLease); err != nil {
		return fmt.Errorf("initial election: %w", err)
	}

	stores := make([]*freshcache.StoreServer, nStores)
	for i := range stores {
		stores[i] = freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr: clusterSpec, AdvertiseAddr: storeAddrs[i],
			HeartbeatInterval: storeLease / 8,
		})
		go stores[i].Serve(storeLns[i]) //nolint:errcheck
		defer stores[i].Close()
	}

	var cacheAddrs []string
	for i := 0; i < 2; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: clusterSpec, T: T, Name: fmt.Sprintf("cache-%d", i),
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
		ClusterAddr: clusterSpec, CacheAddrs: cacheAddrs,
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
	// Load through the LB; request errors while a store is down are
	// expected and counted.
	load, err := oracle.Start(oracle.Config{Addr: lbAddr, Keys: nkeys, Readers: workers, Bound: crashBound})
	if err != nil {
		return err
	}
	start := load.Started()

	// ---- Phase 1 (at 1/3): kill the coordinator LEADER. ----
	third := benchtime / 3
	time.Sleep(third)
	victim, err := leaderIdx(10 * leaderLease)
	if err != nil {
		return err
	}
	preCrashEpoch := coords[victim].RingInfo().Epoch
	killLeaderAt := time.Since(start)
	coords[victim].Close()
	coords[victim] = nil

	newLeader, err := leaderIdx(20 * leaderLease)
	if err != nil {
		return fmt.Errorf("after killing leader %s: %w", coordAddrs[victim], err)
	}
	newLeaderAt := time.Since(start)
	leaderGap := newLeaderAt - killLeaderAt

	// ---- Phase 2 (at 2/3): kill a STORE; the new leader must detect
	// and fail it over exactly as a solo coordinator would. ----
	time.Sleep(2*third - time.Since(start))
	// Pick a store the ring still carries (all three are members here).
	killStoreAt := time.Since(start)
	stores[0].Close()
	promotedAt := time.Duration(0)
	deadline := time.Now().Add(10 * storeLease)
	for {
		if len(coords[newLeader].RingInfo().Nodes) == nStores-1 {
			promotedAt = time.Since(start)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("new leader never failed the dead store over (ring %v)",
				coords[newLeader].RingInfo().Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if rest := benchtime - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	res := load.Stop()
	time.Sleep(crashBound)
	lost, lostErr := load.Audit()

	// ---- Phase 3: restart the killed coordinator from its data
	// directory. Its restored ring epoch must already be at (or past —
	// it may have led a publish the survivors committed) its pre-crash
	// epoch BEFORE any network catch-up, then the group's pulses bring
	// it to the current epoch. ----
	restarted, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: storeAddrs, Replicas: 2,
		LeaseInterval: storeLease, Logger: quiet,
		SelfAddr: coordAddrs[victim], Peers: coordAddrs,
		DataDir: dataDirs[victim], LeaderLease: leaderLease,
	})
	if err != nil {
		return fmt.Errorf("restarting coordinator %s: %w", coordAddrs[victim], err)
	}
	restoredEpoch := restarted.RingInfo().Epoch
	if restoredEpoch < preCrashEpoch {
		restarted.Close()
		return fmt.Errorf("restarted coordinator replayed to epoch %d, want >= pre-crash epoch %d",
			restoredEpoch, preCrashEpoch)
	}
	var rln net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		rln, err = net.Listen("tcp", coordAddrs[victim])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			restarted.Close()
			return fmt.Errorf("rebinding %s: %w", coordAddrs[victim], err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	go restarted.Serve(rln) //nolint:errcheck
	defer restarted.Close()
	groupEpoch := coords[newLeader].RingInfo().Epoch
	rejoined := uint64(0)
	for deadline := time.Now().Add(20 * leaderLease); ; {
		rejoined = restarted.RingInfo().Epoch
		if rejoined >= groupEpoch {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("restarted coordinator stuck at epoch %d, group at %d", rejoined, groupEpoch)
		}
		time.Sleep(10 * time.Millisecond)
	}

	report := coordFailoverReport{
		Benchmark:     "kill-coordinator-failover",
		Generated:     time.Now().UTC().Format(time.RFC3339),
		TBoundMS:      float64(T) / float64(time.Millisecond),
		CrashBoundMS:  float64(crashBound) / float64(time.Millisecond),
		LeaderLeaseMS: float64(leaderLease) / float64(time.Millisecond),
		StoreLeaseMS:  float64(storeLease) / float64(time.Millisecond),
		Coordinators:  nCoords,
		Replicas:      2,
		Workers:       workers,
		Keys:          nkeys,
		DurationS:     time.Since(start).Seconds(),
		KillLeaderAtS: killLeaderAt.Seconds(),
		NewLeaderAtS:  newLeaderAt.Seconds(),
		LeaderGapMS:   float64(leaderGap) / float64(time.Millisecond),
		KillStoreAtS:  killStoreAt.Seconds(),
		PromotedAtS:   promotedAt.Seconds(),
		PreCrashEpoch: preCrashEpoch,
		RestoredEpoch: restoredEpoch,
		RejoinedEpoch: rejoined,
		LostWrites:    lost,
		loadTotals:    newLoadTotals(res),
	}
	if err := report.printTrajectory("2T"); err != nil {
		return err
	}
	fmt.Printf("killed leader at %.2fs, new leader at %.2fs (gap %.0fms, leader lease %.0fms)\n",
		report.KillLeaderAtS, report.NewLeaderAtS, report.LeaderGapMS, report.LeaderLeaseMS)
	fmt.Printf("killed store at %.2fs, promoted at %.2fs (detection %.0fms, store lease %.0fms)\n",
		report.KillStoreAtS, report.PromotedAtS,
		(report.PromotedAtS-report.KillStoreAtS)*1000, report.StoreLeaseMS)
	fmt.Printf("restart: pre-crash epoch %d, replayed from disk to %d, caught up to %d\n",
		report.PreCrashEpoch, report.RestoredEpoch, report.RejoinedEpoch)
	fmt.Printf("totals: %d reads, %d writes, %d errors, %d reads staler than 2T, %d lost writes\n",
		report.TotalReads, report.TotalWrites, report.TotalErrors, report.Violations, report.LostWrites)
	if report.Violations > 0 || report.LostWrites > 0 {
		return fmt.Errorf("coordinator failover broke the guarantee: %d staleness violations (first: %v), %d lost writes (first: %v)",
			report.Violations, res.FirstViolation, report.LostWrites, lostErr)
	}
	if leaderGap > 4*leaderLease {
		return fmt.Errorf("leader failover took %v, want within ~%v", leaderGap, 4*leaderLease)
	}

	if jsonPath != "" {
		return writeReport(jsonPath, report)
	}
	return nil
}
