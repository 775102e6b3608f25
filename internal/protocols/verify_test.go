package protocols

import (
	"testing"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/xkernel"
)

func TestPatternTemplateMatchesPattern(t *testing.T) {
	for _, seq := range []uint64{0, 1, 7, 255, 256, 1<<40 + 3} {
		tmpl := newPatternTemplate(seq)
		for _, off := range []int{0, 1, 255, 256, 4095} {
			for n := 0; n <= 1024; n++ {
				buf := make([]byte, n)
				tmpl.fill(off, buf)
				for i, b := range buf {
					if want := Pattern(seq, off+i); b != want {
						t.Fatalf("seq %d off %d len %d: byte %d = %d, Pattern gives %d", seq, off, n, i, b, want)
					}
				}
				if !tmpl.match(off, buf) {
					t.Fatalf("seq %d off %d len %d: match rejects the pattern", seq, off, n)
				}
				if n == 0 {
					continue
				}
				for _, i := range []int{0, n / 2, n - 1} {
					buf[i] ^= 0x40
					if tmpl.match(off, buf) {
						t.Fatalf("seq %d off %d len %d: match accepts a flipped byte %d", seq, off, n, i)
					}
					buf[i] ^= 0x40
				}
			}
		}
	}
}

// corrupter sits just above the sink's delivery point and flips one payload
// byte of the next message at offset at (none when at < 0), through the
// device path so no protection or simulated cost is involved.
type corrupter struct {
	xkernel.Layer
	t        *testing.T
	at       int
	maxFbufs int
}

func (c *corrupter) Deliver(m *aggregate.Msg) error {
	c.maxFbufs = max(c.maxFbufs, len(m.Fbufs()))
	if c.at >= 0 {
		off := c.at
		for _, s := range m.Segs() {
			if off >= s.N {
				off -= s.N
				continue
			}
			var b [1]byte
			at := int(s.VA-s.F.Base) + off
			if err := s.F.DMARead(at, b[:]); err != nil {
				c.t.Fatal(err)
			}
			b[0] ^= 0x01
			if err := s.F.DMAWrite(at, b[:]); err != nil {
				c.t.Fatal(err)
			}
			break
		}
	}
	return c.Layer.Deliver(m)
}

func TestSinkDetectsCorruption(t *testing.T) {
	r := newRig(t)
	src, net, sink := r.threeDomains()
	cfg := stackCfg(src, net, sink, core.CachedVolatile())
	cfg.DataFbufPages = 2 // 8 KB fbufs: every message spans three
	c := &corrupter{t: t, at: -1}
	cfg.Wrap = func(l xkernel.Layer) xkernel.Layer {
		if tp, ok := l.(*TestProto); ok && tp.Dom() == sink {
			c.Layer = l
			return c
		}
		return l
	}
	s, err := NewLoopbackStack(r.env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Sink.Verify = true
	const n = 20000
	// Clean messages between the corrupted ones must add no failure.
	for i, at := range []int{-1, 0, -1, 4096, -1, 2560, n - 1, -1, 8191, 8192} {
		c.at = at
		before := s.Sink.VerifyFailures
		if err := s.SendVerified(uint64(i), n); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if at >= 0 {
			want = 1
		}
		if got := s.Sink.VerifyFailures - before; got != want {
			t.Fatalf("message %d (flip at %d): %d verify failures, want %d", i, at, got, want)
		}
	}
	if s.Sink.ReceivedMsgs != 10 {
		t.Fatalf("sink received %d messages, want 10", s.Sink.ReceivedMsgs)
	}
	if c.maxFbufs < 3 {
		t.Fatalf("sink messages spanned at most %d fbufs; the test needs multi-fbuf messages", c.maxFbufs)
	}
}
