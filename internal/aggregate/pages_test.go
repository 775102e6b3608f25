package aggregate

import (
	"bytes"
	"fmt"
	"testing"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/vm"
)

// copyingMsgRead is the read path Msg.Read ran before the page visitor:
// bytes [off, off+n) segment by segment, each page translated once and
// copied out of its frame.
func copyingMsgRead(m *Msg, d *domain.Domain, off, n int) ([]byte, error) {
	var out []byte
	for _, s := range m.Segs() {
		if n == 0 {
			break
		}
		if off >= s.N {
			off -= s.N
			continue
		}
		k := min(s.N-off, n)
		for va, left := s.VA+vm.VA(off), k; left > 0; {
			fn, err := d.AS.Translate(va, false)
			if err != nil {
				return nil, err
			}
			po := va.PageOffset()
			c := min(machine.PageSize-po, left)
			buf := make([]byte, c)
			d.AS.Sys.Mem.Read(fn, po, buf)
			out = append(out, buf...)
			left -= c
			va += vm.VA(c)
		}
		n -= k
		off = 0
	}
	return out, nil
}

// simState is everything a read may change besides memory contents.
func (r *rig) simState() string {
	hits, misses := r.sys.TLB.Stats()
	return fmt.Sprintf("clock=%v tlb=%d/%d faults=%d violations=%d stats=%+v",
		r.clk.Now(), hits, misses, r.sys.Faults, r.sys.Violations, r.mgr.Snapshot())
}

// layoutMsgs builds, deterministically, receiver-side views covering the
// segment layouts the page visitor must handle: a multi-fbuf message,
// segments starting mid-page after a split and a clip, a join of two
// messages, and (integrated) a DAG with dangling volatile leaves — one
// into a buffer the receiver holds no rights to, one into unallocated
// region space.
func layoutMsgs(t *testing.T, integrated bool) (*rig, []*Msg) {
	t.Helper()
	r := newRig(t)
	c := r.ctx(t, integrated, 2)
	mk := func(n int) *Msg {
		m, err := c.NewData(pattern(n))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	multi := mk(3*8192 + 100)
	a, b, err := c.Split(mk(3*8192+100), 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err = c.ClipHead(b, 1234)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := c.Join(a, mk(300))
	if err != nil {
		t.Fatal(err)
	}
	var views []*Msg
	for _, m := range []*Msg{multi, b, joined} {
		if err := m.Transfer(r.src, r.dst); err != nil {
			t.Fatal(err)
		}
		v, err := m.ViewFor(r.dst)
		if integrated {
			v, err = Open(r.mgr, r.dst, m.RootVA())
		}
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	if !integrated {
		return r, views
	}
	// A forged DAG in a buffer dst received: data, then a leaf into a
	// src-only fbuf, then a leaf into unallocated region space.
	f := multi.Fbufs()[0]
	p2, err := r.mgr.NewPath("private", core.CachedVolatile(), 1, r.src)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := p2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := secret.Write(r.src, 0, []byte("topsecret")); err != nil {
		t.Fatal(err)
	}
	nowhere := core.RegionBase + vm.VA((r.mgr.RegionPages()-2)*machine.PageSize) + 300
	var enc [nodeSize]byte
	encodeLeaf(enc[:], f.Base+4000, 700)
	l1 := writeNodeRaw(t, r, f, 512, enc[:])
	encodeLeaf(enc[:], secret.Base+3, 9)
	l2 := writeNodeRaw(t, r, f, 544, enc[:])
	encodeLeaf(enc[:], nowhere, machine.PageSize)
	l3 := writeNodeRaw(t, r, f, 576, enc[:])
	encodePair(enc[:], l2, l3, 0)
	p23 := writeNodeRaw(t, r, f, 608, enc[:])
	encodePair(enc[:], l1, p23, 0)
	root := writeNodeRaw(t, r, f, 640, enc[:])
	dangling, err := Open(r.mgr, r.dst, root)
	if err != nil {
		t.Fatal(err)
	}
	if segs := dangling.Segs(); len(segs) != 3 || segs[2].F != nil {
		t.Fatalf("forged DAG opened as %+v, want three segments ending in a dangling one", segs)
	}
	return r, append(views, dangling)
}

func TestReadPagesMatchesCopyingRead(t *testing.T) {
	for _, integrated := range []bool{false, true} {
		t.Run(fmt.Sprint("integrated=", integrated), func(t *testing.T) {
			ref, refMsgs := layoutMsgs(t, integrated)
			r, msgs := layoutMsgs(t, integrated)
			if ref.simState() != r.simState() {
				t.Fatal("rigs differ before reading")
			}
			for i, m := range msgs {
				want, err := copyingMsgRead(refMsgs[i], ref.dst, 0, refMsgs[i].Len())
				if err != nil {
					t.Fatal(err)
				}
				var got []byte
				if err := m.ReadPages(r.dst, func(p []byte) { got = append(got, p...) }); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("msg %d: ReadPages bytes differ from the copying read", i)
				}
				if w, g := ref.simState(), r.simState(); w != g {
					t.Fatalf("msg %d: ReadPages left %s, copying read %s", i, g, w)
				}
				// Ranged reads through the Read wrapper, mid-segment
				// and mid-page.
				for _, rg := range [][2]int{{1, 10}, {4095, 2}, {m.Len() / 3, m.Len() / 2}, {m.Len(), 0}} {
					want, err := copyingMsgRead(refMsgs[i], ref.dst, rg[0], rg[1])
					if err != nil {
						t.Fatal(err)
					}
					got := make([]byte, rg[1])
					if err := m.Read(r.dst, rg[0], got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("msg %d: Read [%d,+%d) differs from the copying read", i, rg[0], rg[1])
					}
					if w, g := ref.simState(), r.simState(); w != g {
						t.Fatalf("msg %d: Read [%d,+%d) left %s, copying read %s", i, rg[0], rg[1], g, w)
					}
				}
			}
		})
	}
}

func TestReadPagesConsumedAndRange(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, false, 2)
	m, err := c.NewData(pattern(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Read(r.src, 90, make([]byte, 11)); err == nil {
		t.Fatal("read past the end accepted")
	}
	if err := m.Free(r.src); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadPages(r.src, func([]byte) {}); err != ErrConsumed {
		t.Fatalf("ReadPages on a consumed message: %v", err)
	}
}

// layout describes a message's shape by address: segments, root, fbufs.
func layout(m *Msg) string {
	out := fmt.Sprintf("root=%#x", uint64(m.RootVA()))
	for _, s := range m.Segs() {
		out += fmt.Sprintf(" seg=%#x+%d", uint64(s.VA), s.N)
	}
	for _, f := range m.Fbufs() {
		out += fmt.Sprintf(" fbuf=%#x", uint64(f.Base))
	}
	return out
}

func TestNewFilledMatchesNewData(t *testing.T) {
	ctxs := map[string]func(r *rig) *Ctx{
		"private":    func(r *rig) *Ctx { return r.ctx(t, false, 2) },
		"integrated": func(r *rig) *Ctx { return r.ctx(t, true, 2) },
		"uncached": func(r *rig) *Ctx {
			return NewUncachedCtx(r.mgr, r.src, core.UncachedNonVolatile(), 3, false)
		},
	}
	for _, name := range []string{"private", "integrated", "uncached"} {
		t.Run(name, func(t *testing.T) {
			ref, r := newRig(t), newRig(t)
			refCtx, c := ctxs[name](ref), ctxs[name](r)
			// Position-dependent bytes with no short period, so a fill
			// handed the wrong offset shows.
			fill := func(off int, p []byte) {
				for i := range p {
					p[i] = byte((off+i)*31 + (off+i)>>8 + 7)
				}
			}
			for _, n := range []int{0, 1, 100, 4096, 8192, 8192*3 + 17, 12289} {
				src := make([]byte, n)
				fill(0, src)
				want, err := refCtx.NewData(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.NewFilled(n, fill)
				if err != nil {
					t.Fatal(err)
				}
				if w, g := ref.simState(), r.simState(); w != g {
					t.Fatalf("n=%d: NewFilled left %s, NewData %s", n, g, w)
				}
				if layout(want) != layout(got) {
					t.Fatalf("n=%d: layout %s, NewData %s", n, layout(got), layout(want))
				}
				wantData, err := want.ReadAll(ref.src)
				if err != nil {
					t.Fatal(err)
				}
				data, err := got.ReadAll(r.src)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, wantData) || !bytes.Equal(data, src) {
					t.Fatalf("n=%d: NewFilled contents differ", n)
				}
				if err := want.Free(ref.src); err != nil {
					t.Fatal(err)
				}
				if err := got.Free(r.src); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
