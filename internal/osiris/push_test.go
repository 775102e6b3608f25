package osiris

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/machine"
	"fbufs/internal/vm"
)

// copyingGather is the gather Push ran before it DMAed each segment into
// one PDU buffer: a fresh chunk per segment appended to a growing slice,
// zeros for a dangling (nil-fbuf) segment.
func copyingGather(t *testing.T, m *aggregate.Msg) []byte {
	t.Helper()
	var data []byte
	for _, s := range m.Segs() {
		if s.F == nil {
			data = append(data, make([]byte, s.N)...)
			continue
		}
		chunk := make([]byte, s.N)
		if err := s.F.DMARead(int(s.VA-s.F.Base), chunk); err != nil {
			t.Fatal(err)
		}
		data = append(data, chunk...)
	}
	return data
}

// txCtx returns an integrated kernel context over one-page fbufs, so every
// page of a message is its own segment.
func txCtx(t *testing.T, r *rig) *aggregate.Ctx {
	t.Helper()
	p, err := r.mgr.NewPath("tx", core.CachedVolatile(), 1, r.reg.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	p.SetQuota(-1)
	ctx, err := aggregate.NewCtx(r.mgr, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func payload(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + salt)
	}
	return b
}

// putNode writes one integrated-mode DAG node (the 32-byte encoding in
// package aggregate) at off in f.
func putNode(t *testing.T, r *rig, f *core.Fbuf, off int, kind byte, n int, a, b vm.VA) vm.VA {
	t.Helper()
	var enc [32]byte
	enc[0] = kind
	binary.LittleEndian.PutUint32(enc[4:], uint32(n))
	binary.LittleEndian.PutUint64(enc[8:], uint64(a))
	binary.LittleEndian.PutUint64(enc[16:], uint64(b))
	if err := f.Write(r.reg.Kernel(), off, enc[:]); err != nil {
		t.Fatal(err)
	}
	return f.Base + vm.VA(off)
}

func TestPushGatherMatchesCopyingGather(t *testing.T) {
	r := newRig(t)
	d, _ := newDriver(t, r)
	ctx := txCtx(t, r)
	k := r.reg.Kernel()

	multi, err := ctx.NewData(payload(3*machine.PageSize+700, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := ctx.Split(multi, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ctx.ClipHead(b, 333)
	if err != nil {
		t.Fatal(err)
	}
	rejoined, err := ctx.Join(b, a)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ctx.NewData(payload(40, 9))
	if err != nil {
		t.Fatal(err)
	}

	// A forged DAG: leaves into real data around a leaf into unallocated
	// region space, which opens as a dangling (nil-fbuf) segment. The
	// view takes extra references so Push's frees leave the originals'.
	f := small.Fbufs()[0]
	nowhere := core.RegionBase + vm.VA((r.mgr.RegionPages()-2)*machine.PageSize)
	l1 := putNode(t, r, f, 512, 1, 30, f.Base+5, 0)
	l2 := putNode(t, r, f, 544, 1, 2000, nowhere, 0)
	l3 := putNode(t, r, f, 576, 1, 25, f.Base+2, 0)
	p23 := putNode(t, r, f, 608, 2, 0, l2, l3)
	root := putNode(t, r, f, 640, 2, 0, l1, p23)
	dangling, err := aggregate.Open(r.mgr, k, root)
	if err != nil {
		t.Fatal(err)
	}
	if segs := dangling.Segs(); len(segs) != 3 || segs[1].F != nil {
		t.Fatalf("forged DAG opened as %+v, want a dangling middle segment", segs)
	}
	for _, f := range dangling.Fbufs() {
		if err := r.mgr.DupRef(f, k); err != nil {
			t.Fatal(err)
		}
	}

	for i, m := range []*aggregate.Msg{rejoined, dangling} {
		want := copyingGather(t, m)
		if err := d.Push(m); err != nil {
			t.Fatal(err)
		}
		q := d.TakeTxQueue()
		if len(q) != 1 {
			t.Fatalf("msg %d: queued %d PDUs", i, len(q))
		}
		if !bytes.Equal(q[0].Data, want) {
			t.Fatalf("msg %d: PDU bytes differ from the copying gather", i)
		}
		if q[0].CRC != crc32.ChecksumIEEE(want) {
			t.Fatalf("msg %d: CRC %#x, want %#x", i, q[0].CRC, crc32.ChecksumIEEE(want))
		}
	}
	if err := small.Free(k); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPushOnePayloadAllocation pins the one-copy transmit path: gathering a
// PDU costs one payload buffer however many segments the message has.
func TestPushOnePayloadAllocation(t *testing.T) {
	pushAllocs := func(segs int) float64 {
		r := newRig(t)
		d, _ := newDriver(t, r)
		ctx := txCtx(t, r)
		const runs = 20
		msgs := make([]*aggregate.Msg, runs+1)
		for i := range msgs {
			m, err := ctx.NewData(payload(segs*machine.PageSize, i))
			if err != nil {
				t.Fatal(err)
			}
			// An extra reference per fbuf keeps Push's release from
			// recycling the buffers, so only the gather is counted.
			for _, f := range m.Fbufs() {
				if err := r.mgr.DupRef(f, r.reg.Kernel()); err != nil {
					t.Fatal(err)
				}
			}
			msgs[i] = m
		}
		d.txq = make([]TxPDU, 0, len(msgs))
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := d.Push(msgs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	one, many := pushAllocs(1), pushAllocs(8)
	if one != 1 || many != 1 {
		t.Fatalf("Push allocates %v times for a 1-segment PDU and %v for an 8-segment one, want 1 each", one, many)
	}
}
