package cache

import (
	"errors"
	"fmt"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
)

// Multi-key serving. An MGET runs the exact per-key cache-aside
// semantics of N single GETs — the same hit/stale/cold classification,
// the same freshness telemetry, the same read-report accounting — but
// pays the resident-set locks once per touched kv shard and services
// every miss through one batched fill per owning store shard. Misses
// ride the same single-flight table as single GETs, so a batch member
// and a concurrent single Get for one key share one store round trip.

// mgetResp serves a batched read. The response carries one op per
// requested key in request order: BatchUpdate for a key served (from
// the resident set or a fill), BatchInvalidate for a clean not-found.
// A store-side failure fails the whole request — like the single-key
// path, errors are not silently downgraded to not-found.
func (s *Server) mgetResp(m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	keys := m.Keys
	resp := proto.GetMsg()
	resp.Type, resp.Seq = proto.MsgMGetResp, m.Seq
	ops := resp.Ops[:0]
	for _, k := range keys {
		ops = append(ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: k})
	}
	resp.Ops = ops

	now := time.Now()
	var (
		missIdx   []int
		missFound []bool
	)
	s.kv.GetBatch(keys, now, func(i int, e kv.Entry, found, fresh bool) {
		s.countRead(keys[i], &e, found, fresh, now)
		if fresh {
			// Entry values are immutable once installed, so the borrow
			// stays a stable snapshot through the encode.
			resp.Ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[i], Value: e.Value, Version: e.Version}
			return
		}
		missIdx = append(missIdx, i)
		missFound = append(missFound, found)
	})
	if len(missIdx) == 0 {
		return resp
	}

	missKeys := make([]string, len(missIdx))
	for j, i := range missIdx {
		missKeys[j] = keys[i]
	}
	fills := s.fillBatch(missKeys, tr)
	for j, f := range fills {
		i := missIdx[j]
		switch {
		case f.err == nil:
			resp.Ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[i], Value: f.value, Version: f.version}
		case errors.Is(f.err, client.ErrNotFound):
			if missFound[j] {
				// Deleted upstream; drop our stale copy. The op stays a
				// BatchInvalidate (clean not-found).
				s.kv.Delete(keys[i])
			}
		default:
			proto.PutMsg(resp)
			eresp := proto.GetMsg()
			eresp.Type, eresp.Seq = proto.MsgErr, m.Seq
			eresp.Err = fmt.Sprintf("cache: batch fill of %q: %v", keys[i], f.err)
			return eresp
		}
	}
	return resp
}

// fillResult is one key's outcome from fillBatch; err wraps
// client.ErrNotFound for keys the authority does not hold.
type fillResult struct {
	value   []byte
	version uint64
	err     error
}

// fillBatch resolves a batch's misses through the single-flight table:
// keys with a fill already in flight (including duplicates within this
// batch) join it; the rest go out as one batched fill, split by owning
// store shard inside the sharded client. Results are in missKeys order.
func (s *Server) fillBatch(missKeys []string, tr *proto.SpanRec) []fillResult {
	flights := make([]*flight, len(missKeys))
	var (
		leadKeys    []string
		leadFlights []*flight
	)
	s.fillMu.Lock()
	for i, k := range missKeys {
		if f := s.fills[k]; f != nil {
			s.c.FillsDeduped.Inc()
			flights[i] = f
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.fills[k] = f
		flights[i] = f
		leadKeys = append(leadKeys, k)
		leadFlights = append(leadFlights, f)
	}
	s.fillMu.Unlock()

	if len(leadKeys) > 0 {
		fillStart := time.Now()
		var res []client.MGetResult
		if tr != nil {
			var fts []*proto.Trace
			res, fts = s.stores.MFillTraced(leadKeys, tr.ID())
			for _, ft := range fts {
				if ft != nil {
					// One sibling hop per contacted store shard: the
					// client's hop tree shows the batch fan-out.
					tr.Add(ft)
				}
			}
		} else {
			res = s.stores.MFill(leadKeys)
		}
		s.fillRTT.Observe(float64(time.Since(fillStart)))
		for j, f := range leadFlights {
			r := res[j]
			err := r.Err
			if err == nil && !r.Found {
				err = fmt.Errorf("%w: %q", client.ErrNotFound, leadKeys[j])
			}
			s.settleFill(leadKeys[j], f, r.Value, r.Version, err)
		}
	}

	out := make([]fillResult, len(missKeys))
	for i, f := range flights {
		<-f.done
		out[i] = fillResult{value: f.value, version: f.version, err: f.err}
	}
	return out
}

// mputResp forwards a batched write to the owning store shards (writes
// bypass the cache) and relays the per-key outcome: a key whose write
// failed at its shard answers as BatchInvalidate, the rest carry their
// assigned versions.
func (s *Server) mputResp(m *proto.Msg, tr *proto.SpanRec) *proto.Msg {
	n := len(m.Ops)
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range m.Ops {
		if m.Ops[i].Kind != proto.BatchUpdate {
			return &proto.Msg{Type: proto.MsgErr, Seq: m.Seq,
				Err: fmt.Sprintf("cache: MPUT op %d has kind %d, want update", i, m.Ops[i].Kind)}
		}
		keys[i] = m.Ops[i].Key
		vals[i] = m.Ops[i].Value // copied off the reader buffer by handleConn
	}
	s.c.Puts.Add(uint64(n))
	var results []client.MPutResult
	if tr != nil {
		var pts []*proto.Trace
		results, pts = s.stores.MPutTraced(keys, vals, tr.ID())
		for _, pt := range pts {
			if pt != nil {
				tr.Add(pt)
			}
		}
	} else {
		results = s.stores.MPut(keys, vals)
	}
	resp := proto.GetMsg()
	resp.Type, resp.Seq = proto.MsgMPutResp, m.Seq
	ops := resp.Ops[:0]
	for i, r := range results {
		if r.Err != nil {
			ops = append(ops, proto.BatchOp{Kind: proto.BatchInvalidate, Key: keys[i]})
			continue
		}
		ops = append(ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: keys[i], Version: r.Version})
	}
	resp.Ops = ops
	return resp
}
