package proto

import (
	"bytes"
	"testing"
)

// readFrame reads m's encoded frame back with ReadFrame.
func readFrame(t *testing.T, m *Msg) []byte {
	t.Helper()
	b, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := NewReader(bytes.NewReader(b)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, b) {
		t.Fatalf("ReadFrame = %x, want the encoded frame %x", frame, b)
	}
	return frame
}

func TestPeekGet(t *testing.T) {
	plain := readFrame(t, &Msg{Type: MsgGet, Seq: 3, Key: "user:42"})
	key, id, ok := PeekGet(plain)
	if !ok || string(key) != "user:42" || id != 0 {
		t.Fatalf("untraced: %q %#x %v", key, id, ok)
	}
	traced := readFrame(t, &Msg{Type: MsgGet, Seq: 4, Key: "k",
		Trace: &Trace{ID: 0xfeed, Spans: []Span{{Node: "edge", Start: 1, Dur: 2}}}})
	key, id, ok = PeekGet(traced)
	if !ok || string(key) != "k" || id != 0xfeed {
		t.Fatalf("traced: %q %#x %v", key, id, ok)
	}
	if tp, seq, tf := FrameHead(traced); tp != MsgGet || seq != 4 || !tf {
		t.Fatalf("FrameHead = %v %d %v", tp, seq, tf)
	}
	if _, _, ok := PeekGet(readFrame(t, &Msg{Type: MsgFill, Seq: 5, Key: "k"})); ok {
		t.Error("PeekGet accepted a FILL")
	}
	if n := testing.AllocsPerRun(100, func() { PeekGet(traced) }); n != 0 {
		t.Errorf("PeekGet allocates %v per traced frame", n)
	}
}

func TestCopyFrameRewritesSeq(t *testing.T) {
	frame := readFrame(t, &Msg{Type: MsgGet, Seq: 7, Key: "k"})
	f := CopyFrame(frame, 1<<40)
	defer f.Release()
	if _, seq, _ := FrameHead(frame); seq != 7 {
		t.Fatalf("source frame seq changed to %d", seq)
	}
	var m Msg
	if err := NewReader(bytes.NewReader(f.Bytes())).ReadMsgInto(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgGet || m.Seq != 1<<40 || m.Key != "k" {
		t.Fatalf("copy decodes to %+v", m)
	}
}
