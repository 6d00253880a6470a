// Package lb implements the load balancer in front of the caches and the
// store shards (Figure 4): reads are routed to a cache chosen by
// consistent-hash key affinity (so each key's read traffic concentrates
// on one cache and hit ratios stay high, and adding a cache moves only
// ~1/N of the keyspace instead of reshuffling it), writes go to the
// store shard owning the key, and everything else is answered locally.
//
// A GET is routed as a frame, not a message (forward.go): the LB peeks
// its key, rewrites its seq, and forwards the bytes on one multiplexed
// conn per cache, splicing the response back verbatim. Every other
// request is decoded and proxied through the same client pools the
// caches use: PUTs need the sharded client's failover retry, and
// MGET/MPUT split by shard.
//
// Close is graceful: the listener stops accepting, in-flight requests
// drain (bounded by DrainTimeout), the rest are answered with an error
// as the upstream conns close, and the connection goroutines are
// waited out, mirroring the store and cache servers.
package lb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/cluster"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/stats"
)

// Config configures the balancer.
type Config struct {
	// StoreAddr is the write path of a single-store deployment. Exactly
	// one of StoreAddr and StoreAddrs must be set.
	StoreAddr string
	// StoreAddrs are the authority shards of a sharded deployment;
	// writes route to shards by consistent hashing over this list.
	StoreAddrs []string
	// ClusterAddr, when set, bootstraps the store ring from the
	// cluster coordinator (a comma-separated group under coordinator
	// HA — the watcher rotates past dead members) instead of
	// StoreAddr/StoreAddrs, and watches it: a newly published ring
	// epoch atomically reroutes the write path. The cache ring stays
	// static — only the store tier reshards dynamically.
	ClusterAddr string
	// WatchInterval paces the coordinator poll in cluster mode;
	// defaults to 100ms.
	WatchInterval time.Duration
	// CacheAddrs are the read path targets. At least one is required.
	CacheAddrs []string
	// VirtualNodes sets the ring points per node on both rings; <= 0
	// uses ring.DefaultVirtualNodes.
	VirtualNodes int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// before tearing down the upstream conns, and then for the error
	// answers that teardown queues to flush; defaults to 5s.
	DrainTimeout time.Duration
	// SlowTraceThreshold, when positive, makes traced requests that take
	// at least this long emit a one-line span log. Zero disables the
	// slow log (traces still propagate on the wire).
	SlowTraceThreshold time.Duration
	// Logger receives diagnostics; nil uses the standard logger.
	Logger *log.Logger
}

// Counters is the balancer's observable state.
type Counters struct {
	Reads, Writes, Errors stats.Counter
	MalformedFrames       stats.Counter
	// MGetKeys/MPutKeys count the keys carried by multi-key requests
	// (batch.go).
	MGetKeys, MPutKeys stats.Counter
}

// Server is a live load balancer.
type Server struct {
	cfg       Config
	stores    *client.Sharded
	cacheRing *ring.Ring
	// caches serve the decoded MGET path; ups forward GET frames. Both
	// are indexed by cacheRing node.
	caches []*client.Client
	ups    []upstream
	// fwdTimeout bounds a forwarded GET (fwdTimeout; tests shorten it).
	fwdTimeout time.Duration
	c          Counters

	reg *stats.Registry
	// readRTT and writeRTT sample the upstream round trip of every
	// proxied read (to the affine cache) and write (to the owning
	// store) in nanoseconds.
	readRTT  stats.Histogram
	writeRTT stats.Histogram
	// batchSize is the keys-per-request distribution of multi-key
	// operations (MGET/MPUT).
	batchSize stats.Histogram

	mu     sync.Mutex
	ln     net.Listener
	watch  *cluster.Watcher // nil outside cluster mode
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// inflight tracks request/response exchanges until their response
	// is flushed, so Close can drain them before tearing down the
	// upstream conns. draining gates new registrations (under mu) so an
	// Add can never race Close's Wait from a zero counter.
	inflight sync.WaitGroup
	draining bool
}

// New builds a balancer. In cluster mode the store ring is fetched
// from the coordinator (which must be reachable within a few seconds).
func New(cfg Config) (*Server, error) {
	var bootstrap client.RingInfo
	if cfg.ClusterAddr == "" {
		addrs, err := client.ResolveStoreAddrs(cfg.StoreAddr, cfg.StoreAddrs)
		if err != nil {
			return nil, fmt.Errorf("lb: %w", err)
		}
		cfg.StoreAddrs = addrs
	} else {
		if cfg.StoreAddr != "" || len(cfg.StoreAddrs) > 0 {
			return nil, errors.New("lb: set a cluster coordinator or store addresses, not both")
		}
		ri, err := cluster.FetchRing(cfg.ClusterAddr, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("lb: %w", err)
		}
		bootstrap = ri
		cfg.StoreAddrs = ri.Nodes
		cfg.VirtualNodes = ri.VirtualNodes
	}
	if cfg.WatchInterval <= 0 {
		cfg.WatchInterval = 100 * time.Millisecond
	}
	if len(cfg.CacheAddrs) == 0 {
		return nil, errors.New("lb: at least one cache address is required")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	stores, err := client.NewSharded(cfg.StoreAddrs, cfg.VirtualNodes, client.Options{})
	if err != nil {
		return nil, fmt.Errorf("lb: %w", err)
	}
	if bootstrap.Epoch > 0 {
		if err := stores.SwapRing(bootstrap.Epoch, bootstrap.Nodes, bootstrap.VirtualNodes); err != nil {
			stores.Close()
			return nil, fmt.Errorf("lb: %w", err)
		}
	}
	cacheRing, err := ring.New(cfg.CacheAddrs, cfg.VirtualNodes)
	if err != nil {
		stores.Close()
		return nil, fmt.Errorf("lb: %w", err)
	}
	s := &Server{cfg: cfg, stores: stores, cacheRing: cacheRing, fwdTimeout: fwdTimeout}
	s.ups = make([]upstream, cacheRing.Len())
	for i, addr := range cacheRing.Nodes() {
		s.caches = append(s.caches, client.New(addr, client.Options{}))
		s.ups[i].addr = addr
	}
	s.reg = s.buildRegistry()
	if cfg.ClusterAddr != "" {
		// On-demand failover for the write path: a write whose owner
		// just crashed refreshes the ring from the coordinator and
		// retries once against the promoted owner, rather than erroring
		// until the watcher's next successful poll.
		stores.SetRefresher(func() (client.RingInfo, bool) {
			ri, err := cluster.FetchRing(cfg.ClusterAddr, time.Second)
			return ri, err == nil
		})
	}
	return s, nil
}

// StoreRing exposes the write-path ring for tests and tooling.
func (s *Server) StoreRing() *ring.Ring { return s.stores.Ring() }

// CacheRing exposes the read-path ring for tests and tooling.
func (s *Server) CacheRing() *ring.Ring { return s.cacheRing }

// ListenAndServe listens on addr and proxies until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("lb: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections until Close. Serve after Close closes ln
// and returns net.ErrClosed at once.
func (s *Server) Serve(ln net.Listener) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.cancel = cancel
	// Serve holds a slot in wg until it returns, taken under mu before
	// Close can set draining: every later Add then starts from a nonzero
	// counter and cannot race Close's Wait.
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	if s.cfg.ClusterAddr != "" {
		w := cluster.NewWatcher(s.cfg.ClusterAddr, s.cfg.WatchInterval, s.stores.Epoch(),
			func(ri client.RingInfo) {
				if err := s.stores.SwapRing(ri.Epoch, ri.Nodes, ri.VirtualNodes); err != nil {
					s.cfg.Logger.Printf("lb: swapping to ring epoch %d: %v", ri.Epoch, err)
					return
				}
				s.cfg.Logger.Printf("lb: writes now route by ring epoch %d (%d stores)",
					ri.Epoch, len(ri.Nodes))
			})
		w.SetLogger(s.cfg.Logger)
		s.mu.Lock()
		s.watch = w
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx)
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.draining
			s.mu.Unlock()
			if !closing {
				cancel() // Close cancels only once in-flight requests are answered
			}
			return fmt.Errorf("lb: accept: %w", err)
		}
		s.wg.Add(1)
		go s.handleConn(ctx, conn)
	}
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the balancer gracefully: no new connections are accepted
// and in-flight requests finish and respond, bounded by DrainTimeout.
// Then the upstream conns close, which answers every request still in
// flight with an error; those answers get one more DrainTimeout to
// flush before the client connections close and the connection
// goroutines are waited out.
func (s *Server) Close() error {
	s.mu.Lock()
	ln, cancel := s.ln, s.cancel
	s.draining = true
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	wait := func() bool {
		select {
		case <-drained:
			return true
		case <-time.After(s.cfg.DrainTimeout):
			return false
		}
	}
	if !wait() {
		s.cfg.Logger.Printf("lb: drain timeout after %v, aborting in-flight requests", s.cfg.DrainTimeout)
	}
	s.stores.Close()
	for i := range s.ups {
		s.caches[i].Close()
		s.ups[i].close(s)
	}
	wait()
	if cancel != nil {
		cancel() // closes the client-facing connections
	}
	s.wg.Wait()
	return err
}

// beginRequest registers an in-flight exchange unless Close has begun
// draining.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// maxConnInflight bounds the requests per client connection, forwarded
// and dispatched together, whose response is not yet flushed; beyond it
// the read loop exerts backpressure.
const maxConnInflight = 256

func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	sem := make(chan struct{}, maxConnInflight)
	cc := &clientConn{out: make(chan proto.Outgoing, maxConnInflight)}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// Each response's slots are released only once its frame is
		// flushed (or abandoned on a dead connection), so Close's drain
		// wait means "responded", not merely "queued", and out never
		// holds more than maxConnInflight frames.
		proto.WriteQueueFlushed(conn, cc.out, conn, func(n int) {
			for i := 0; i < n; i++ {
				<-sem
				s.inflight.Done()
			}
		})
	}()

	// Requests on one connection are answered out of order: each
	// response echoes its request's Seq, and the pipelined client demuxes
	// by it. A GET is forwarded from this loop; any other request is
	// dispatched on its own goroutine, so one proxied round trip never
	// stalls the requests queued behind it.
	r := proto.NewReader(conn)
	for {
		frame, err := r.ReadFrame()
		var m *proto.Msg
		key, traceID, isGet := proto.PeekGet(frame)
		if err == nil && !isGet {
			// Pooled request Msg: the dispatcher goroutine owns it and
			// returns it to the pool when done.
			m = proto.GetMsg()
			if err = r.DecodeFrame(frame, m); err != nil {
				proto.PutMsg(m)
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.c.MalformedFrames.Inc()
				s.cfg.Logger.Printf("lb: conn %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		if !s.beginRequest() {
			proto.PutMsg(m)
			break // draining: reject requests arriving after Close
		}
		sem <- struct{}{}
		cc.pending.Add(1)
		if isGet {
			s.forward(cc, frame, key, traceID)
			continue
		}
		ownValues(m)
		go func(m *proto.Msg) {
			tr := proto.StartSpan(m, "lb")
			resp := s.route(m, tr)
			resp.Seq = m.Seq
			proto.PutMsg(m)
			cc.reply(proto.Outgoing{Msg: s.finishTrace(tr, resp), Pooled: true})
		}(m)
	}
	cc.pending.Wait()
	close(cc.out)
	<-writerDone
	conn.Close()
}

// ownValues copies m's values off the reader's buffer, which the next
// read overwrites while the dispatcher still runs. (Keys are interned
// strings, immutable and safe to hold.)
func ownValues(m *proto.Msg) {
	if m.Value != nil {
		m.Value = append([]byte(nil), m.Value...)
	}
	if len(m.Ops) > 0 {
		// Batched writes: one backing buffer copies every op's value.
		total := 0
		for i := range m.Ops {
			total += len(m.Ops[i].Value)
		}
		buf := make([]byte, 0, total)
		for i := range m.Ops {
			if m.Ops[i].Value == nil {
				continue
			}
			start := len(buf)
			buf = append(buf, m.Ops[i].Value...)
			m.Ops[i].Value = buf[start:len(buf):len(buf)]
		}
	}
}

// finishTrace closes a traced request's hop span on its response and
// emits the slow-request span log when the hop exceeded the configured
// threshold. Both are no-ops for untraced requests (nil recorder).
func (s *Server) finishTrace(tr *proto.SpanRec, resp *proto.Msg) *proto.Msg {
	resp = tr.Finish(resp)
	if th := s.cfg.SlowTraceThreshold; th > 0 && resp != nil && resp.Trace != nil && tr.Elapsed() >= th {
		s.cfg.Logger.Printf("lb: %s", proto.TraceLogLine(resp.Trace, "lb", tr.Elapsed()))
	}
	return resp
}

func (s *Server) route(m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	switch m.Type {
	case proto.MsgPut:
		s.c.Writes.Inc()
		start := time.Now()
		var (
			version uint64
			err     error
		)
		if tr != nil {
			var st *proto.Trace
			version, st, err = s.stores.PutTraced(m.Key, m.Value, tr.ID())
			tr.Add(st)
		} else {
			version, err = s.stores.Put(m.Key, m.Value)
		}
		s.writeRTT.Observe(float64(time.Since(start)))
		resp := proto.GetMsg()
		if err != nil {
			s.c.Errors.Inc()
			resp.Type, resp.Err = proto.MsgErr, err.Error()
			return resp
		}
		resp.Type, resp.Status, resp.Version = proto.MsgPutResp, proto.StatusOK, version
		return resp
	case proto.MsgMGet:
		s.c.Reads.Add(uint64(len(m.Keys)))
		s.c.MGetKeys.Add(uint64(len(m.Keys)))
		s.batchSize.Observe(float64(len(m.Keys)))
		return s.routeMGet(m, tr)
	case proto.MsgMPut:
		s.c.Writes.Add(uint64(len(m.Ops)))
		s.c.MPutKeys.Add(uint64(len(m.Ops)))
		s.batchSize.Observe(float64(len(m.Ops)))
		return s.routeMPut(m, tr)
	case proto.MsgPing:
		return &proto.Msg{Type: proto.MsgPong}
	case proto.MsgStats:
		return &proto.Msg{Type: proto.MsgStatsResp, Stats: s.StatsMap()}
	default:
		s.c.MalformedFrames.Inc()
		return &proto.Msg{Type: proto.MsgErr, Err: fmt.Sprintf("lb: unexpected message %v", m.Type)}
	}
}

// buildRegistry wires every balancer metric into one registry rendered
// by both /metrics and MsgStatsResp.
func (s *Server) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	r.Counter("freshcache_lb_reads_total", "GETs proxied to the cache tier.", "reads", &s.c.Reads)
	r.Counter("freshcache_lb_writes_total", "PUTs proxied to the store tier.", "writes", &s.c.Writes)
	r.Counter("freshcache_lb_errors_total", "Proxied requests that failed upstream.", "errors", &s.c.Errors)
	r.Counter("freshcache_lb_malformed_frames_total", "Frames rejected as malformed.", "malformed_frames", &s.c.MalformedFrames)
	r.LabeledCounter("freshcache_lb_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mget"}, "mget_ops", &s.c.MGetKeys)
	r.LabeledCounter("freshcache_lb_batch_ops_total",
		"Keys carried by multi-key requests, by operation.",
		[]string{"op"}, []string{"mput"}, "mput_ops", &s.c.MPutKeys)
	gauge := func(name, help, key string, fn func() float64) {
		r.Gauge("freshcache_lb_"+name, help, key, fn)
	}
	gauge("caches", "Cache nodes on the read-path ring.", "caches", func() float64 {
		return float64(len(s.caches))
	})
	gauge("stores", "Store shards on the write-path ring.", "stores", func() float64 {
		return float64(s.stores.Len())
	})
	gauge("ring_epoch", "Cluster ring epoch writes route by.", "ring_epoch", func() float64 {
		return float64(s.stores.Epoch())
	})
	gauge("failovers", "Owner failovers taken by the sharded store client.", "failovers", func() float64 {
		return float64(s.stores.Failovers())
	})
	gauge("watcher_stalled_polls", "Consecutive failed coordinator polls.", "watcher_stalled_polls", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watch == nil {
			return 0
		}
		return float64(s.watch.ConsecutiveFailures())
	})
	gauge("watcher_failed_polls", "Total failed coordinator polls.", "watcher_failed_polls", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watch == nil {
			return 0
		}
		return float64(s.watch.FailedPolls())
	})
	gauge("watcher_resumes", "Coordinator poll streams resumed after failures.", "watcher_resumes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watch == nil {
			return 0
		}
		return float64(s.watch.Resumes())
	})
	r.Histogram("freshcache_lb_read_rtt_seconds",
		"Upstream round-trip latency of proxied reads.",
		stats.LatencySecondsBuckets, 1e9, "", &s.readRTT)
	r.Histogram("freshcache_lb_write_rtt_seconds",
		"Upstream round-trip latency of proxied writes.",
		stats.LatencySecondsBuckets, 1e9, "", &s.writeRTT)
	r.Histogram("freshcache_lb_batch_size",
		"Keys per multi-key request (MGET/MPUT).",
		stats.BatchSizeBuckets, 1, "batch_size_samples", &s.batchSize)
	return r
}

// Metrics exposes the balancer's metric registry (the /metrics source).
func (s *Server) Metrics() *stats.Registry { return s.reg }

// StatsMap snapshots the balancer's counters.
func (s *Server) StatsMap() map[string]uint64 { return s.reg.StatsMap() }
