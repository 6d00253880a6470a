package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"freshcache"
	"freshcache/internal/oracle"
)

// reshardReport is the machine-readable record of a live resharding
// run, in the same spirit as BENCH_pipeline.json.
type reshardReport struct {
	Benchmark     string  `json:"benchmark"`
	Generated     string  `json:"generated"`
	TBoundMS      float64 `json:"t_bound_ms"`
	Workers       int     `json:"workers"`
	Keys          int     `json:"keys"`
	DurationS     float64 `json:"duration_s"`
	JoinAtS       float64 `json:"join_at_s"`
	PublishedAtS  float64 `json:"published_at_s"`
	MovedFraction float64 `json:"moved_fraction"`
	loadTotals
}

// reshardBench boots a live coordinator-managed 2-store/2-cache/1-LB
// cluster on loopback, drives mixed load, joins a third store halfway
// through, and records the throughput / staleness-violation
// trajectory across the handoff.
func reshardBench(workers int, benchtime time.Duration, tBound float64, jsonPath string) error {
	T := time.Duration(tBound * float64(time.Second))
	if T <= 0 {
		T = 500 * time.Millisecond
	}
	if benchtime < 4*T {
		benchtime = 4 * T
	}
	quiet := log.New(io.Discard, "", 0)

	startStore := func(i int) (*freshcache.StoreServer, string, error) {
		st := freshcache.NewStoreServer(freshcache.StoreConfig{
			T: T, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
		})
		ln, addr, err := listen()
		if err != nil {
			return nil, "", err
		}
		go st.Serve(ln) //nolint:errcheck
		return st, addr, nil
	}

	st0, addr0, err := startStore(0)
	if err != nil {
		return err
	}
	defer st0.Close()
	st1, addr1, err := startStore(1)
	if err != nil {
		return err
	}
	defer st1.Close()

	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: []string{addr0, addr1}, Logger: quiet,
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

	var cacheAddrs []string
	for i := 0; i < 2; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: coAddr, T: T, Name: fmt.Sprintf("cache-%d", i), Logger: quiet,
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
		ClusterAddr: coAddr, CacheAddrs: cacheAddrs, Logger: quiet,
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
	load, err := oracle.Start(oracle.Config{Addr: lbAddr, Keys: nkeys, Readers: workers, Bound: T})
	if err != nil {
		return err
	}
	start := load.Started()

	// Mid-run: boot and join the third store, live.
	half := benchtime / 2
	time.Sleep(half)
	joinAt := time.Since(start)
	oldRing, err := freshcache.NewRing([]string{addr0, addr1}, 0)
	if err != nil {
		return err
	}
	st2, addr2, err := startStore(2)
	if err != nil {
		return err
	}
	defer st2.Close()
	ri, err := co.Join(addr2)
	if err != nil {
		return fmt.Errorf("live join: %w", err)
	}
	publishedAt := time.Since(start)
	newRing, err := freshcache.NewRing(ri.Nodes, ri.VirtualNodes)
	if err != nil {
		return err
	}
	moved := 0
	for _, key := range load.Keys() {
		if oldRing.OwnerAddr(key) != newRing.OwnerAddr(key) {
			moved++
		}
	}

	time.Sleep(benchtime - half)
	res := load.Stop()

	report := reshardReport{
		Benchmark:     "live-reshard-join",
		Generated:     time.Now().UTC().Format(time.RFC3339),
		TBoundMS:      float64(T) / float64(time.Millisecond),
		Workers:       workers,
		Keys:          nkeys,
		DurationS:     time.Since(start).Seconds(),
		JoinAtS:       joinAt.Seconds(),
		PublishedAtS:  publishedAt.Seconds(),
		MovedFraction: float64(moved) / float64(nkeys),
		loadTotals:    newLoadTotals(res),
	}
	if err := report.printTrajectory("T"); err != nil {
		return err
	}
	fmt.Printf("join at %.2fs, ring epoch %d published at %.2fs, moved fraction %.3f (ideal 0.333)\n",
		report.JoinAtS, ri.Epoch, report.PublishedAtS, report.MovedFraction)
	fmt.Printf("totals: %d reads, %d writes, %d errors, %d reads staler than T\n",
		report.TotalReads, report.TotalWrites, report.TotalErrors, report.Violations)

	if jsonPath != "" {
		return writeReport(jsonPath, report)
	}
	return nil
}
