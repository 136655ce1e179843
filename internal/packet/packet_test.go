package packet

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		ReadReq: "RD", WriteReq: "WR", ReadReply: "RDACK",
		WriteReply: "WRACK", AtomicReq: "ATOM", AtomicReply: "ATOMACK",
		Released: "FREED", Kind(42): "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestIsRequest(t *testing.T) {
	reqs := []Kind{ReadReq, WriteReq, AtomicReq}
	reps := []Kind{ReadReply, WriteReply, AtomicReply}
	for _, k := range reqs {
		if !k.IsRequest() {
			t.Errorf("%v should be a request", k)
		}
	}
	for _, k := range reps {
		if k.IsRequest() {
			t.Errorf("%v should not be a request", k)
		}
	}
}

// TestFlitAsymmetry pins the data-carrying asymmetry the covert channel
// relies on: write requests are fat on the request path, read replies are
// fat on the reply path.
func TestFlitAsymmetry(t *testing.T) {
	if FlitsFor(WriteReq) <= FlitsFor(ReadReq) {
		t.Error("write requests must be larger than read requests")
	}
	if FlitsFor(ReadReply) <= FlitsFor(WriteReply) {
		t.Error("read replies must be larger than write acks")
	}
	if FlitsFor(WriteReq) != FlitsFor(ReadReply) {
		t.Error("data packets should be symmetric in size")
	}
	if FlitsFor(AtomicReq) != 2 || FlitsFor(AtomicReply) != 2 {
		t.Error("atomics carry an operand")
	}
}

func TestReplyKind(t *testing.T) {
	for req, rep := range map[Kind]Kind{
		ReadReq: ReadReply, WriteReq: WriteReply, AtomicReq: AtomicReply,
	} {
		got, err := ReplyKind(req)
		if err != nil || got != rep {
			t.Errorf("ReplyKind(%v) = %v, %v", req, got, err)
		}
	}
	for _, k := range []Kind{ReadReply, WriteReply, AtomicReply} {
		if _, err := ReplyKind(k); err == nil {
			t.Errorf("ReplyKind(%v) should fail", k)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, Kind: WriteReq, Tag: WarpTag{SM: 3, Warp: 2, Op: 9}, Addr: 0x1000, Slice: 5}
	s := p.String()
	for _, frag := range []string{"WR#7", "sm3", "w2", "op9", "0x1000", "slice=5"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	if p.Flits() != DataFlits {
		t.Errorf("Flits = %d", p.Flits())
	}
}

// Property: every request kind has a reply kind, and replies never ride the
// request subnet.
func TestQuickReplyKindClosure(t *testing.T) {
	f := func(raw uint8) bool {
		k := Kind(raw % 6)
		rep, err := ReplyKind(k)
		if k.IsRequest() {
			return err == nil && !rep.IsRequest()
		}
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReleasePoisons pins the poison a released packet carries: a kind that
// is neither a request nor has a reply, and an SM tag no SM owns.
func TestReleasePoisons(t *testing.T) {
	p := &Packet{Kind: ReadReply, Tag: WarpTag{SM: 3, Warp: 1, Op: 4}}
	p.Release()
	if p.Kind != Released || p.Tag.SM != -1 {
		t.Fatalf("released packet = %v", p)
	}
	if p.Kind.IsRequest() {
		t.Error("a released packet must not be a request")
	}
	if _, err := ReplyKind(p.Kind); err == nil {
		t.Error("a released packet must have no reply kind")
	}
}
