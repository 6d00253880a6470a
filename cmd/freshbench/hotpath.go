package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"freshcache"
)

// hotpathBaseline is the committed pre-optimization reference the
// hotpath run compares itself against: the pipelined transport's row
// from BENCH_pipeline.json (recorded before the zero-allocation work).
type hotpathBaseline struct {
	Source    string  `json:"source"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
}

// batchPoint is one batch size's measured point in the hotpath sweep.
// Ops counts keys served (not frames), so ops/sec stays comparable
// across batch sizes; latency percentiles are whole-request round
// trips, and the alloc figures are whole-process malloc deltas divided
// by keys served — the amortized per-key cost of the batched frame.
type batchPoint struct {
	Batch        int     `json:"batch"`
	Ops          int     `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	P50us        float64 `json:"p50_us"`
	P99us        float64 `json:"p99_us"`
	AllocsPerKey float64 `json:"allocs_per_key"`
	BytesPerKey  float64 `json:"bytes_per_key"`
	GCCycles     uint32  `json:"gc_cycles"`
}

// hotpathReport is the machine-readable record of one hotpath run, as
// written to BENCH_hotpath.json.
type hotpathReport struct {
	Benchmark string  `json:"benchmark"`
	Generated string  `json:"generated"`
	Workers   int     `json:"workers"`
	DurationS float64 `json:"duration_s"`
	ValueSize int     `json:"value_bytes"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	// AllocsPerOp and BytesPerOp are whole-process malloc deltas divided
	// by completed ops. Client and store share the process here, so this
	// is the full request path — encode, syscalls, demux, store lookup,
	// response — not just the client half.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// GCCycles is how many collections the measurement window triggered.
	GCCycles uint32 `json:"gc_cycles"`

	// StoreMetrics is the store's end-of-run stats snapshot (the same
	// registry /metrics renders), so a recorded run carries the server's
	// own view — hit/fill mix, malformed frames, served-age sample count.
	StoreMetrics map[string]uint64 `json:"store_metrics,omitempty"`

	Baseline          *hotpathBaseline `json:"baseline,omitempty"`
	SpeedupVsBaseline float64          `json:"speedup_vs_baseline,omitempty"`

	// BatchSweep is the batched-read trajectory: the same workload
	// re-driven through MGET at increasing keys-per-frame. The top-level
	// fields above stay the batch=1 single-GET numbers, so recorded runs
	// remain comparable across versions.
	BatchSweep []batchPoint `json:"batch_sweep,omitempty"`
}

// hotpathBench boots one live store on loopback and hammers reads over
// the multiplexed transport, recording throughput, latency percentiles,
// and whole-process allocation rates — at batch size 1 (plain GETs) and
// through the batched MGET path. batch == 0 sweeps {1, 8, 32}; batch > 0
// measures that one point (CI's bench smoke runs a single batched
// point). It is the acceptance benchmark for the zero-allocation and
// batched-operations hot-path work; pair it with the servers' -obs flag
// to see where the remaining cycles go.
func hotpathBench(workers int, benchtime time.Duration, jsonPath string, batch int) error {
	st := freshcache.NewStoreServer(freshcache.StoreConfig{T: time.Hour, ShardID: "bench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go st.Serve(ln) //nolint:errcheck
	defer st.Close()
	addr := ln.Addr().String()

	const nkeys, valSize = 64, 128
	seed := freshcache.NewClient(addr, freshcache.ClientOptions{})
	val := make([]byte, valSize)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		if _, err := seed.Put(keys[i], val); err != nil {
			seed.Close()
			return fmt.Errorf("preload: %w", err)
		}
	}
	seed.Close()

	c := freshcache.NewClient(addr, freshcache.ClientOptions{})
	defer c.Close()

	// Warm up: fill the frame/Msg/waiter pools (single-key and batched)
	// and let the connections settle so the measured window sees steady
	// state.
	warm := time.Now().Add(benchtime / 4)
	for time.Now().Before(warm) {
		if _, _, err := c.Get(keys[0]); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
		if _, err := c.MGet(keys[:8]); err != nil {
			return fmt.Errorf("warmup mget: %w", err)
		}
	}

	sizes := []int{1, 8, 32}
	if batch > 0 {
		sizes = []int{batch}
	}
	report := hotpathReport{
		Benchmark: "hotpath-get-throughput",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Workers:   workers,
		DurationS: benchtime.Seconds(),
		ValueSize: valSize,
	}
	for _, b := range sizes {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pt, err := driveBatchWorkers(c, keys, workers, b, benchtime)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		pt.GCCycles = after.NumGC - before.NumGC
		if pt.Ops > 0 {
			pt.AllocsPerKey = float64(after.Mallocs-before.Mallocs) / float64(pt.Ops)
			pt.BytesPerKey = float64(after.TotalAlloc-before.TotalAlloc) / float64(pt.Ops)
		}
		report.BatchSweep = append(report.BatchSweep, pt)
		if b == 1 {
			// The single-GET point doubles as the top-level record, so
			// recorded hotpath runs stay comparable across versions.
			report.Ops, report.OpsPerSec = pt.Ops, pt.OpsPerSec
			report.P50us, report.P99us = pt.P50us, pt.P99us
			report.AllocsPerOp, report.BytesPerOp = pt.AllocsPerKey, pt.BytesPerKey
			report.GCCycles = pt.GCCycles
		}
	}
	if st, err := c.Stats(); err == nil {
		report.StoreMetrics = st
	}
	if base := loadPipelineBaseline("BENCH_pipeline.json"); base != nil && report.OpsPerSec > 0 {
		report.Baseline = base
		if base.OpsPerSec > 0 {
			report.SpeedupVsBaseline = report.OpsPerSec / base.OpsPerSec
		}
	}

	w := tw()
	fmt.Fprintln(w, "batch\tops (keys)\tops/sec\tp50 (us)\tp99 (us)\tallocs/key\tbytes/key\tgc")
	for _, pt := range report.BatchSweep {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.1f\t%.1f\t%.2f\t%.1f\t%d\n",
			pt.Batch, pt.Ops, pt.OpsPerSec, pt.P50us, pt.P99us,
			pt.AllocsPerKey, pt.BytesPerKey, pt.GCCycles)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if report.Baseline != nil {
		fmt.Printf("batch=1 speedup vs %s pipelined baseline (%.0f ops/sec): %.2fx\n",
			report.Baseline.Source, report.Baseline.OpsPerSec, report.SpeedupVsBaseline)
	}

	if jsonPath != "" {
		return writeReport(jsonPath, report)
	}
	return nil
}

// latSample thins the latency capture to one op in 8: at hot-path rates
// two extra clock reads per op are themselves a measurable tax on the
// single-core benchmark, and percentiles over an unbiased 1-in-8 sample
// match the full distribution.
const latSample = 8

// driveBatchWorkers hammers reads from `workers` goroutines for the
// benchtime window. batch == 1 issues plain single-key GETs; batch > 1
// issues MGETs of `batch` consecutive keys per frame. Ops counts keys
// served; sampled latencies are whole-request round trips. The alloc
// and GC fields are left to the caller.
func driveBatchWorkers(c *freshcache.Client, keys []string, workers, batch int, benchtime time.Duration) (batchPoint, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []int64
		ops      int
		firstErr error
	)
	stopAt := time.Now().Add(benchtime)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]int64, 0, 1<<14)
			bk := make([]string, batch)
			n, reqs := 0, 0
			for i := w; ; i++ {
				var t0 time.Time
				timed := reqs%latSample == 0
				if timed {
					t0 = time.Now()
					if !t0.Before(stopAt) {
						break
					}
				}
				var err error
				if batch == 1 {
					_, _, err = c.Get(keys[i%len(keys)])
				} else {
					base := i * batch
					for j := 0; j < batch; j++ {
						bk[j] = keys[(base+j)%len(keys)]
					}
					var res []freshcache.MGetResult
					res, err = c.MGet(bk)
					if err == nil && len(res) != batch {
						err = fmt.Errorf("MGET answered %d keys for %d", len(res), batch)
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				n += batch
				reqs++
				if timed {
					lat = append(lat, time.Since(t0).Nanoseconds())
				}
			}
			mu.Lock()
			all = append(all, lat...)
			ops += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return batchPoint{}, fmt.Errorf("hotpath batch=%d: %w", batch, firstErr)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / 1e3
	}
	return batchPoint{
		Batch:     batch,
		Ops:       ops,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		P50us:     pct(0.50),
		P99us:     pct(0.99),
	}, nil
}

// loadPipelineBaseline reads the committed pipelined-transport result
// out of a BENCH_pipeline.json, if one is readable from the working
// directory. Missing or malformed files just drop the comparison.
func loadPipelineBaseline(path string) *hotpathBaseline {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep struct {
		Results []struct {
			Transport string  `json:"transport"`
			OpsPerSec float64 `json:"ops_per_sec"`
			P50us     float64 `json:"p50_us"`
			P99us     float64 `json:"p99_us"`
		} `json:"results"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil
	}
	for _, r := range rep.Results {
		if r.Transport == "pipelined" {
			return &hotpathBaseline{
				Source:    path,
				OpsPerSec: r.OpsPerSec,
				P50us:     r.P50us,
				P99us:     r.P99us,
			}
		}
	}
	return nil
}
