// borrowedview analyzer fixtures: escapes and mutations of borrowed
// buffers, plus the blessed serve-in-scope and copy-out shapes.
package borrowedview

import (
	"net"
	"time"

	"freshcache/internal/kv"
	"freshcache/internal/proto"
)

type holder struct {
	buf []byte
}

var stash []byte

func storeInFieldBad(a *kv.Authority, h *holder, key string) {
	v, _, ok := a.GetView(key)
	if !ok {
		return
	}
	h.buf = v // want "stored in a struct field"
}

func storeInMapBad(a *kv.Authority, cache map[string][]byte, key string) {
	v, _, _, ok := a.GetViewAged(key)
	if !ok {
		return
	}
	cache[key] = v // want "stored in a map or slice element"
}

func storeInGlobalBad(a *kv.Authority, key string) {
	v, _, ok := a.GetView(key)
	if ok {
		stash = v // want "stored in package-level variable"
	}
}

func sendOnChannelBad(a *kv.Authority, ch chan []byte, key string) {
	v, _, ok := a.GetView(key)
	if ok {
		ch <- v // want "sent on a channel"
	}
}

func mutateBad(a *kv.Authority, key string) {
	v, _, ok := a.GetView(key)
	if ok {
		v[0] = 0xFF // want "write into borrowed"
	}
}

func copyIntoBad(a *kv.Authority, key string, src []byte) {
	v, _, ok := a.GetView(key)
	if ok {
		copy(v, src) // want "copy into borrowed"
	}
}

func appendBad(a *kv.Authority, key string) []byte {
	v, _, ok := a.GetView(key)
	if !ok {
		return nil
	}
	return append(v, 0) // want "append to borrowed"
}

func batchCallbackEscapeBad(a *kv.Authority, keys []string) {
	a.GetViewAgedBatch(keys, func(i int, value []byte, version uint64, written time.Time, ok bool) {
		if ok {
			stash = value // want "stored in package-level variable"
		}
	})
}

func frameBytesEscapeBad(f *proto.SharedFrame, h *holder) {
	b := f.Bytes()
	h.buf = b // want "stored in a struct field"
}

func serveInScopeGood(a *kv.Authority, conn net.Conn, key string) {
	v, _, ok := a.GetView(key)
	if !ok {
		return
	}
	conn.Write(v)
}

func copyOutGood(a *kv.Authority, h *holder, key string) {
	v, _, ok := a.GetView(key)
	if !ok {
		return
	}
	owned := make([]byte, len(v))
	copy(owned, v)
	h.buf = owned
}

func batchServeGood(a *kv.Authority, conn net.Conn, keys []string) {
	a.GetViewAgedBatch(keys, func(i int, value []byte, version uint64, written time.Time, ok bool) {
		if ok {
			conn.Write(value)
		}
	})
}

// A frame router must copy a read frame before its next read.

func rewriteSeqInPlaceBad(r *proto.Reader) {
	frame, err := r.ReadFrame()
	if err != nil {
		return
	}
	frame[5] = 0 // want "write into borrowed"
}

func queueFrameBad(r *proto.Reader, ch chan []byte) {
	frame, err := r.ReadFrame()
	if err == nil {
		ch <- frame // want "sent on a channel"
	}
}

func holdFrameBad(r *proto.Reader, h *holder) {
	frame, _ := r.ReadFrame()
	h.buf = frame // want "stored in a struct field"
}

func indexByPeekedKeyBad(r *proto.Reader, byKey map[int][]byte) {
	frame, _ := r.ReadFrame()
	key, _, ok := proto.PeekGet(frame)
	if ok {
		byKey[len(key)] = key // want "stored in a map or slice element"
	}
}

func forwardCopyGood(r *proto.Reader, out chan *proto.SharedFrame) {
	frame, err := r.ReadFrame()
	if err != nil {
		return
	}
	if _, _, ok := proto.PeekGet(frame); ok {
		out <- proto.CopyFrame(frame, 7)
	}
}

func decodeGood(r *proto.Reader, m *proto.Msg) error {
	frame, err := r.ReadFrame()
	if err != nil {
		return err
	}
	return r.DecodeFrame(frame, m)
}
