package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/core"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/xrand"
)

// Share of --seconds each part of the traced run takes.
const (
	fracUntraced = 0.15 // loaded, untraced: the reference for overhead and queueing
	fracTraced   = 0.30 // loaded, every request traced (read-only workloads: 2/3 reads, 1/3 probes)
	fracSingle   = 0.10 // one caller, untraced
	fracRung     = 0.10 // each of the store, cache and LB read rungs
	fracPutRung  = 0.05
	fracInProc   = 0.10 // all in-process timings together
)

// sampleOps is how many ops of the workload's streams the in-process
// timings replay.
const sampleOps = 4096

// perLayer runs the traced measurement and returns the per-layer
// metrics. It reports no end-to-end number.
func perLayer(e *env, dur time.Duration) ([]metric, []string) {
	frac := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }

	settle()
	untraced, _ := e.loaded(frac(fracUntraced), nil)

	spans := newSpanStats()
	c0 := e.cl.counters()
	var (
		rt readRes
		wt writeRes
		c1 counters
	)
	if e.s.mixed() {
		rt, wt = e.loaded(frac(fracTraced), spans)
		c1 = e.cl.counters()
	} else {
		rt, _ = e.loaded(frac(fracTraced*2/3), spans)
		c1 = e.cl.counters()
		wt = e.tail(frac(fracTraced/3), spans)
	}
	c2 := e.cl.counters()
	problems := e.validate(c0, c1, c2)

	single := e.closedLoop(lbTarget{c: e.rd}, 1, frac(fracSingle))

	stores, err := client.NewSharded(e.cl.storeAddrs, e.cl.vnodes, client.Options{})
	if err != nil {
		return nil, append(problems, err.Error())
	}
	defer stores.Close()
	caches, err := client.NewSharded(e.cl.cacheAddrs, e.cl.vnodes, client.Options{})
	if err != nil {
		return nil, append(problems, err.Error())
	}
	defer caches.Close()
	storeP50, storeAllocs := e.rung(shardTarget{stores}, frac(fracRung))
	cacheP50, cacheAllocs := e.rung(shardTarget{caches}, frac(fracRung))
	lbP50, lbAllocs := e.rung(lbTarget{c: e.rd}, frac(fracRung))
	putP50 := e.putRung(stores, frac(fracPutRung))

	selfP50 := func(layer string) float64 { return us(pct(spans.self[layer], 0.5)) }
	up50 := pct(untraced.lat.all(), 0.5)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := func(a, b counters, role, key string) float64 { return delta(a, b, role, key) }
	gets := d(c0, c1, "cache", "gets")
	misses := d(c0, c1, "cache", "stale_misses") + d(c0, c1, "cache", "cold_misses")
	puts := d(c0, c2, "store", "puts")
	upd, inv := d(c0, c2, "store", "updates_sent"), d(c0, c2, "store", "invalidates_sent")
	storeReads := d(c0, c1, "store", "fills") + d(c0, c1, "store", "mget_ops")

	ms := []metric{
		{"lb.self_p50_us", "us", selfP50("lb")},
		{"cache.self_p50_us", "us", selfP50("cache")},
		{"store.self_p50_us", "us", selfP50("store")},
		{"client.self_p50_us", "us", selfP50("client")},
		{"store.rung_p50_us", "us", storeP50},
		{"store.rung_allocs_per_op", "allocs/op", storeAllocs},
		{"cache.rung_p50_us", "us", cacheP50},
		{"cache.rung_allocs_per_op", "allocs/op", cacheAllocs},
		{"lb.rung_p50_us", "us", lbP50},
		{"lb.rung_allocs_per_op", "allocs/op", lbAllocs},
		{"store.put_rung_p50_us", "us", putP50},
		{"cache.hit_ratio", "ratio", ratio(d(c0, c1, "cache", "hits"), gets)},
		{"cache.evictions_per_read", "ratio", ratio(d(c0, c1, "cache", "evictions"), gets)},
		{"cache.fills_deduped_ratio", "ratio", ratio(d(c0, c1, "cache", "fills_deduped"), misses)},
		{"cache.stale_miss_ratio", "ratio", ratio(d(c0, c2, "cache", "stale_misses"), d(c0, c2, "cache", "gets"))},
		{"store.fills_per_read", "ratio", ratio(storeReads, d(c0, c1, "lb", "reads"))},
		{"store.rep_writes_per_write", "ratio", ratio(d(c0, c2, "store", "rep_writes_out"), puts)},
		{"store.push_ops_per_write", "ratio", ratio(upd+inv, puts)},
		{"core.update_share", "ratio", ratio(upd, upd+inv)},
		{"path.queue_p50_us", "us", us(up50 - pct(single.lat.all(), 0.5))},
		{"gen.late_p90_us", "us", us(pct(wt.late.all(), 0.9))},
		{"trace.overhead_pct", "%", 100 * ratio(float64(pct(rt.lat.all(), 0.5)-up50), float64(up50))},
	}
	readRate := float64(untraced.keys) / untraced.dur.Seconds()
	inproc, err := e.inProcess(frac(fracInProc), readRate, wt)
	if err != nil {
		return nil, append(problems, err.Error())
	}
	fmt.Printf("samples: traced_reads=%d spans(lb/cache/store)=%d/%d/%d writes=%d\n", len(rt.lat.all()),
		len(spans.self["lb"]), len(spans.self["cache"]), len(spans.self["store"]), len(wt.writeLat.all()))
	return append(ms, inproc...), problems
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// rung replays the read op stream with the loaded shape against t and
// returns its p50 in µs and the whole process's allocations per op.
func (e *env) rung(t readTarget, dur time.Duration) (float64, float64) {
	m0 := mallocs()
	r := e.closedLoop(t, callers, dur)
	return us(pct(r.lat.all(), 0.5)), float64(mallocs()-m0) / float64(max(r.ops, 1))
}

// writeSample returns the key indices of the workload's first n
// writes: its open-loop writes, or for a read-only workload its tail's
// writes, drawn with the read popularity.
func (e *env) writeSample(n int) []int {
	out := make([]int, 0, n)
	if !e.s.mixed() {
		rng := xrand.New(e.seed, streamTail)
		for len(out) < n {
			out = append(out, e.pick.sample(rng))
		}
		return out
	}
	o := e.s.openStream(e.seed)
	var ops []openOp
	for k := 0; len(out) < n; k++ {
		for _, op := range o.at(k, ops[:0]) {
			if op.write && len(out) < n {
				out = append(out, op.idx)
			}
		}
	}
	return out
}

// readSample returns the first n ops of caller 0's read stream.
func (e *env) readSample(n int) [][]int {
	st := e.s.readStream(e.pick, e.seed, 0)
	out := make([][]int, n)
	for i := range out {
		out[i] = slices.Clone(st.next())
	}
	return out
}

// putRung writes the workload's write keys straight to their owning
// stores, one at a time, and returns the p50 ack latency in µs.
func (e *env) putRung(stores *client.Sharded, dur time.Duration) float64 {
	idxs := e.writeSample(sampleOps)
	var lat []time.Duration
	end := time.Now().Add(dur)
	for i := 0; time.Now().Before(end); i++ {
		idx := idxs[i%len(idxs)]
		seq := e.tr.nextSeq(idx)
		key := e.keys[idx]
		t0 := time.Now()
		ver, err := stores.Put(key, valueOf(key, seq))
		at := time.Now()
		e.tally.op(err != nil)
		if err != nil {
			continue
		}
		lat = append(lat, at.Sub(t0))
		e.tr.record(idx, seq, ver, at)
	}
	return us(pct(lat, 0.5))
}

// timeit runs pass repeatedly for about budget and returns the median
// over passes of nanoseconds per op (pass returns its op count).
func timeit(budget time.Duration, pass func() int) float64 {
	var per []float64
	end := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(end) {
		t0 := time.Now()
		n := pass()
		per = append(per, float64(time.Since(t0))/float64(max(n, 1)))
	}
	return median(per)
}

var sink int

// inProcess times calls into proto, kv, core and ring over the
// workload's own sampled op stream. readRate (keys/s) sets how many
// reads the policy engine observes per flush.
func (e *env) inProcess(budget time.Duration, readRate float64, wt writeRes) ([]metric, error) {
	each := budget / 10
	reads := e.readSample(sampleOps)
	writes := e.writeSample(sampleOps)
	var readKeys []string
	for _, op := range reads {
		for _, idx := range op {
			readKeys = append(readKeys, e.keys[idx])
		}
	}
	val := valueOf("k", 0)
	now := time.Now()

	r, err := ring.New(e.cl.storeAddrs, e.cl.vnodes)
	if err != nil {
		return nil, err
	}
	ownerNs := timeit(each, func() int {
		for _, k := range readKeys {
			sink += r.Owner(k)
		}
		return len(readKeys)
	})

	// proto: the workload's request and response frames.
	var frames []*proto.Msg
	for _, op := range reads {
		if len(op) == 1 {
			frames = append(frames,
				&proto.Msg{Type: proto.MsgGet, Key: e.keys[op[0]]},
				&proto.Msg{Type: proto.MsgGetResp, Status: proto.StatusOK, Version: 1, Value: val})
			continue
		}
		m := &proto.Msg{Type: proto.MsgMGet}
		resp := &proto.Msg{Type: proto.MsgMGetResp}
		for _, idx := range op {
			m.Keys = append(m.Keys, e.keys[idx])
			resp.Ops = append(resp.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: e.keys[idx], Value: val, Version: 1})
		}
		frames = append(frames, m, resp)
	}
	var buf, all []byte
	for _, m := range frames {
		if all, err = proto.AppendFrame(all, m); err != nil {
			return nil, err
		}
	}
	encode := func() int {
		for _, m := range frames {
			buf, _ = proto.AppendFrame(buf[:0], m)
		}
		return len(frames)
	}
	var decodeErr error
	decode := func() int {
		rd := proto.NewReader(bytes.NewReader(all))
		var m proto.Msg
		for i := range frames {
			if err := rd.ReadMsgInto(&m); err != nil {
				decodeErr = fmt.Errorf("decoding frame %d: %w", i, err)
				break
			}
		}
		return len(frames)
	}
	encNs := timeit(each, encode)
	decNs := timeit(each, decode)
	if decodeErr != nil {
		return nil, decodeErr
	}
	m0 := mallocs()
	encode()
	decode()
	allocsPerFrame := float64(mallocs()-m0) / float64(2*len(frames))

	// kv: a cache sized like the workload's, filled with every key in
	// turn, and an authority holding every key.
	kc := kv.NewCache(e.s.capacity)
	auth := kv.NewAuthority()
	for _, k := range e.keys {
		kc.Put(k, kv.Entry{Value: val, Version: 1})
		auth.Put(k, val, now)
	}
	cacheGetNs := timeit(each, func() int {
		for _, k := range readKeys {
			if _, found, _ := kc.Get(k, now); found {
				sink++
			}
		}
		return len(readKeys)
	})
	cachePutNs := timeit(each, func() int {
		for _, k := range readKeys {
			kc.Put(k, kv.Entry{Value: val, Version: 2})
		}
		return len(readKeys)
	})
	cacheApplyNs := timeit(each, func() int {
		for i, idx := range writes {
			if idx >= e.s.readKeys && idx < e.s.keys {
				kc.Invalidate(e.keys[idx])
			} else {
				kc.Update(e.keys[idx], val, uint64(i))
			}
		}
		return len(writes)
	})
	authGetNs := timeit(each, func() int {
		for _, k := range readKeys {
			if _, _, ok := auth.GetView(k); ok {
				sink++
			}
		}
		return len(readKeys)
	})
	authPutNs := timeit(each, func() int {
		for _, idx := range writes {
			auth.Put(e.keys[idx], val, now)
		}
		return len(writes)
	})

	// core: observe the op stream, then flush T's worth of it at a time
	// and encode the resulting push frame.
	eng := core.NewEngine(core.Config{})
	observeNs := timeit(each, func() int {
		n := 0
		for i, op := range reads {
			for _, idx := range op {
				eng.ObserveRead(e.keys[idx])
				n++
			}
			eng.ObserveWrite(e.keys[writes[i]])
			n++
		}
		return n
	})
	eng.Flush()
	perFlushWrites := max(1, int(float64(len(wt.writeLat.all()))*float64(staleBound)/float64(max(wt.dur, 1))))
	perFlushReads := int(readRate * staleBound.Seconds())
	var flushUs, encodeUs []float64
	ri, wi := 0, 0
	end := time.Now().Add(each)
	for len(flushUs) < 3 || time.Now().Before(end) {
		for j := 0; j < perFlushReads; j++ {
			for _, idx := range reads[ri%len(reads)] {
				eng.ObserveRead(e.keys[idx])
			}
			ri++
		}
		for j := 0; j < perFlushWrites; j++ {
			eng.ObserveWrite(e.keys[writes[wi%len(writes)]])
			wi++
		}
		t0 := time.Now()
		decisions := eng.Flush()
		t1 := time.Now()
		batch := proto.Msg{Type: proto.MsgBatch, Epoch: uint64(len(flushUs))}
		for _, dcs := range decisions {
			switch dcs.Action {
			case core.ActionUpdate:
				v, ver, _ := auth.GetView(dcs.Key)
				batch.Ops = append(batch.Ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: dcs.Key, Value: v, Version: ver})
			case core.ActionInvalidate:
				batch.Ops = append(batch.Ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: dcs.Key})
			}
		}
		frame, err := proto.EncodeShared(&batch, 1)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		frame.Release()
		flushUs = append(flushUs, us(t1.Sub(t0)))
		encodeUs = append(encodeUs, us(t2.Sub(t1)))
	}

	return []metric{
		{"ring.owner_ns", "ns", ownerNs},
		{"proto.encode_ns", "ns", encNs},
		{"proto.decode_ns", "ns", decNs},
		{"proto.allocs_per_frame", "allocs/frame", allocsPerFrame},
		{"proto.batch_encode_us", "us", median(encodeUs)},
		{"kv.cache_get_ns", "ns", cacheGetNs},
		{"kv.cache_put_ns", "ns", cachePutNs},
		{"kv.cache_apply_ns", "ns", cacheApplyNs},
		{"kv.authority_get_ns", "ns", authGetNs},
		{"kv.authority_put_ns", "ns", authPutNs},
		{"core.observe_ns", "ns", observeNs},
		{"core.flush_us", "us", median(flushUs)},
	}, nil
}
