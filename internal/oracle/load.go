package oracle

import (
	"fmt"
	"sync"
	"time"

	"freshcache/internal/client"
)

// bucketWidth is the time slice a Load counts operations in.
const bucketWidth = 100 * time.Millisecond

// A Load's pauses: after each write, after each read, and after a
// failed read (a node may be down mid-fault; do not spin on it).
const (
	writerPause = time.Millisecond
	readerPause = time.Millisecond
	errorPause  = 5 * time.Millisecond
)

// Config sets up one Load.
type Config struct {
	Addr    string        // node every request goes through
	Keys    int           // keyspace size: keys key-0000, key-0001, …
	Readers int           // concurrent reader loops
	Bound   time.Duration // staleness bound each read is judged against
}

// Bucket counts the operations of one 100 ms slice of a run.
type Bucket struct {
	TSec       float64 `json:"t_s"`
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	Errors     int     `json:"errors"`
	Violations int     `json:"violations"` // reads staler than the bound, or junk
}

// Result is what a Load observed.
type Result struct {
	Buckets                           []Bucket // the non-empty ones, in time order
	Reads, Writes, Errors, Violations int
	// FirstViolation describes the first read that broke the contract;
	// nil when none did.
	FirstViolation error
	// LastError is when the last request failed; zero when none did.
	LastError time.Time
}

// Load runs one round-robin writer and Config.Readers round-robin
// readers through one node, judging every read with a Checker. The
// writer's values are its sequence numbers.
type Load struct {
	cfg   Config
	keys  []string
	check *Checker
	start time.Time
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	mu      sync.Mutex
	buckets []Bucket
	res     Result
}

// Start preloads every key, then starts the writer and the readers.
func Start(cfg Config) (*Load, error) {
	ld := &Load{cfg: cfg, keys: make([]string, cfg.Keys), check: NewChecker(cfg.Bound), stop: make(chan struct{})}
	c := client.New(cfg.Addr, client.Options{})
	defer c.Close()
	for i := range ld.keys {
		ld.keys[i] = fmt.Sprintf("key-%04d", i)
		ver, err := c.Put(ld.keys[i], Value(0))
		if err != nil {
			return nil, fmt.Errorf("oracle: preload %s: %w", ld.keys[i], err)
		}
		ld.check.Ack(ld.keys[i], 0, ver, time.Now())
	}
	ld.start = time.Now()
	ld.wg.Add(1 + cfg.Readers)
	go ld.write()
	for w := 0; w < cfg.Readers; w++ {
		go ld.read(w)
	}
	return ld, nil
}

// Keys returns the keyspace.
func (ld *Load) Keys() []string { return ld.keys }

// Started returns when the load began.
func (ld *Load) Started() time.Time { return ld.start }

func (ld *Load) stopped() bool {
	select {
	case <-ld.stop:
		return true
	default:
		return false
	}
}

func (ld *Load) write() {
	defer ld.wg.Done()
	c := client.New(ld.cfg.Addr, client.Options{})
	defer c.Close()
	for seq := uint64(1); !ld.stopped(); seq++ {
		key := ld.keys[int(seq-1)%len(ld.keys)]
		ver, err := c.Put(key, Value(seq))
		at := time.Now()
		if err == nil {
			ld.check.Ack(key, seq, ver, at)
		}
		ld.record(at, err, func(b *Bucket) { b.Writes++ })
		time.Sleep(writerPause)
	}
}

func (ld *Load) read(w int) {
	defer ld.wg.Done()
	c := client.New(ld.cfg.Addr, client.Options{})
	defer c.Close()
	for i := w; !ld.stopped(); i++ {
		key := ld.keys[i%len(ld.keys)]
		t0 := time.Now()
		v, ver, err := c.Get(key)
		if err != nil {
			ld.record(t0, err, nil)
			time.Sleep(errorPause)
			continue
		}
		verdict := ld.check.Check(key, v, ver, t0)
		ld.record(t0, nil, func(b *Bucket) {
			b.Reads++
			if verdict.OK() {
				return
			}
			b.Violations++
			if ld.res.FirstViolation == nil {
				ld.res.FirstViolation = fmt.Errorf("read of %s at %v returned v%d %q: %v",
					key, t0.Sub(ld.start).Round(time.Millisecond), ver, v, verdict)
			}
		})
		time.Sleep(readerPause)
	}
}

// record counts one operation at at: a failure when err is set, else
// through count, which runs under ld.mu.
func (ld *Load) record(at time.Time, err error, count func(*Bucket)) {
	i := max(int(at.Sub(ld.start)/bucketWidth), 0)
	ld.mu.Lock()
	defer ld.mu.Unlock()
	for len(ld.buckets) <= i {
		ld.buckets = append(ld.buckets, Bucket{})
	}
	b := &ld.buckets[i]
	if err != nil {
		b.Errors++
		ld.res.LastError = at
		return
	}
	count(b)
}

// Stop ends the load and returns what it observed. It may be called
// more than once.
func (ld *Load) Stop() Result {
	ld.once.Do(func() { close(ld.stop) })
	ld.wg.Wait()
	ld.mu.Lock()
	defer ld.mu.Unlock()
	res := ld.res
	for i, b := range ld.buckets {
		if b.Reads+b.Writes+b.Errors == 0 {
			continue
		}
		b.TSec = float64(i) * bucketWidth.Seconds()
		res.Buckets = append(res.Buckets, b)
		res.Reads += b.Reads
		res.Writes += b.Writes
		res.Errors += b.Errors
		res.Violations += b.Violations
	}
	return res
}

// Audit reads every key back once, after Stop and once the writes have
// had the bound to settle, and counts the keys that fail, return junk
// or miss an acknowledged write; err describes the first.
func (ld *Load) Audit() (lost int, err error) {
	c := client.New(ld.cfg.Addr, client.Options{})
	defer c.Close()
	for _, key := range ld.keys {
		v, ver, gerr := c.Get(key)
		var bad error
		switch {
		case gerr != nil:
			bad = fmt.Errorf("audit get %s: %w", key, gerr)
		case ld.check.Check(key, v, ver, time.Now()).Junk || ld.check.Lost(key, ver):
			bad = fmt.Errorf("key %s lost an acknowledged write: reads v%d %q", key, ver, v)
		}
		if bad != nil {
			lost++
			if err == nil {
				err = bad
			}
		}
	}
	return lost, err
}
