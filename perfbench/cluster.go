package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"freshcache"
)

// cluster is one in-process deployment: a coordinator, numStores
// stores at R=replicas, numCaches caches and one LB, all with T =
// staleBound, on loopback.
type cluster struct {
	coord      *freshcache.Coordinator
	stores     []*freshcache.StoreServer
	caches     []*freshcache.CacheServer
	lb         *freshcache.LoadBalancer
	storeAddrs []string
	cacheAddrs []string
	lbAddr     string
	vnodes     int
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

// bootCluster starts every server and waits until the caches have
// subscribed to both stores.
func bootCluster(capacity int) (*cluster, error) {
	quiet := log.New(io.Discard, "", 0)
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	storeLns := make([]net.Listener, numStores)
	for i := range storeLns {
		ln, addr, err := listen()
		if err != nil {
			return nil, err
		}
		storeLns[i] = ln
		c.storeAddrs = append(c.storeAddrs, addr)
	}
	// A lease far above the heartbeat interval: a loaded 2-CPU box must
	// never fail a store over during a run (the validity gate checks).
	const lease = 3 * time.Second
	co, err := freshcache.NewCoordinator(freshcache.CoordinatorConfig{
		Stores: c.storeAddrs, Replicas: replicas, LeaseInterval: lease, Logger: quiet,
	})
	if err != nil {
		for _, ln := range storeLns {
			ln.Close()
		}
		return nil, err
	}
	c.coord = co
	coLn, coAddr, err := listen()
	if err != nil {
		return nil, err
	}
	go co.Serve(coLn) //nolint:errcheck // returns on Close
	for i := range storeLns {
		st := freshcache.NewStoreServer(freshcache.StoreConfig{
			T: staleBound, ShardID: fmt.Sprintf("shard-%d", i), Logger: quiet,
			ClusterAddr: coAddr, AdvertiseAddr: c.storeAddrs[i],
			HeartbeatInterval: 250 * time.Millisecond,
		})
		c.stores = append(c.stores, st)
		go st.Serve(storeLns[i]) //nolint:errcheck // returns on Close
	}
	for i := 0; i < numCaches; i++ {
		ca, err := freshcache.NewCacheServer(freshcache.CacheConfig{
			ClusterAddr: coAddr, T: staleBound, Capacity: capacity,
			Name: fmt.Sprintf("cache-%d", i), Logger: quiet,
		})
		if err != nil {
			return nil, err
		}
		ln, addr, err := listen()
		if err != nil {
			ca.Close()
			return nil, err
		}
		c.caches = append(c.caches, ca)
		c.cacheAddrs = append(c.cacheAddrs, addr)
		go ca.Serve(ln) //nolint:errcheck // returns on Close
	}
	lb, err := freshcache.NewLoadBalancer(freshcache.LBConfig{
		ClusterAddr: coAddr, CacheAddrs: c.cacheAddrs, Logger: quiet,
	})
	if err != nil {
		return nil, err
	}
	ln, addr, err := listen()
	if err != nil {
		lb.Close()
		return nil, err
	}
	c.lb, c.lbAddr = lb, addr
	go lb.Serve(ln) //nolint:errcheck // returns on Close
	ri, err := freshcache.FetchRing(coAddr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c.vnodes = ri.VirtualNodes
	if err := c.awaitSubscribed(5 * time.Second); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// awaitSubscribed waits until every store counts every cache as a
// subscriber, so no preload write can precede a subscription.
func (c *cluster) awaitSubscribed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for _, st := range c.stores {
			if st.Metrics().StatsMap()["subscribers"] < numCaches {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("caches did not subscribe to every store within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *cluster) close() {
	if c.lb != nil {
		c.lb.Close()
	}
	for _, ca := range c.caches {
		ca.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
}

// counters is a snapshot of every server's stats registry, keyed by
// role: "store", "cache" (each summed over its nodes) and "lb".
type counters map[string]map[string]uint64

func (c *cluster) counters() counters {
	out := counters{"store": {}, "cache": {}, "lb": c.lb.StatsMap()}
	for _, st := range c.stores {
		for k, v := range st.Metrics().StatsMap() {
			out["store"][k] += v
		}
	}
	for _, ca := range c.caches {
		for k, v := range ca.StatsMap() {
			out["cache"][k] += v
		}
	}
	return out
}

// delta returns b−a for one role's counter (gauges too: a gauge that
// only grows, like evictions or ring_epoch, diffs like a counter).
func delta(a, b counters, role, key string) float64 {
	return float64(b[role][key]) - float64(a[role][key])
}
