package vm

import (
	"bytes"
	"fmt"
	"testing"

	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/simtime"
)

// copyingRead and copyingWrite are the copying access loops Read and Write
// ran before the page visitors: translate each page once, then copy
// through PhysMem. The visitors must be indistinguishable from them in
// bytes, simulated time, TLB behaviour and fault accounting.
func copyingRead(as *AddrSpace, va VA, buf []byte) error {
	for len(buf) > 0 {
		fn, err := as.Translate(va, false)
		if err != nil {
			return err
		}
		off := va.PageOffset()
		n := min(machine.PageSize-off, len(buf))
		as.Sys.Mem.Read(fn, off, buf[:n])
		buf = buf[n:]
		va += VA(n)
	}
	return nil
}

func copyingWrite(as *AddrSpace, va VA, data []byte) error {
	for len(data) > 0 {
		fn, err := as.Translate(va, true)
		if err != nil {
			return err
		}
		off := va.PageOffset()
		n := min(machine.PageSize-off, len(data))
		as.Sys.Mem.Write(fn, off, data[:n])
		data = data[n:]
		va += VA(n)
	}
	return nil
}

const (
	pgRW    = VA(0x10000)  // three read-write pages
	pgRO    = VA(0x20000)  // one read-only page
	pgCOW   = VA(0x30000)  // one COW page shared with another space
	pgLazy  = VA(0x100000) // four pages mapped on first touch
	pgEmpty = VA(0x200000) // nothing mapped, no region
)

// pageRig builds one address space with every kind of page the access
// path distinguishes, deterministically, so two rigs start identical.
func pageRig() (*System, *AddrSpace, *simtime.Clock) {
	sys, clk := newSys()
	as := sys.NewAddrSpace("a")
	other := sys.NewAddrSpace("b")
	seed := byte(1)
	mapFilled := func(va VA, prot Prot) {
		fn, _ := sys.Mem.Alloc()
		d := sys.Mem.Frame(fn).Data
		for i := range d {
			d[i] = byte(i)*seed + seed
		}
		seed += 2
		as.MapOwned(va, fn, prot)
	}
	for i := 0; i < 3; i++ {
		mapFilled(pgRW+VA(i*machine.PageSize), ReadWrite)
	}
	mapFilled(pgRO, ProtRead)
	mapFilled(pgCOW, ReadWrite)
	pte, _ := as.Lookup(pgCOW)
	other.Map(pgCOW, pte.Frame, ProtRead)
	as.SetCOW(pgCOW)
	other.SetCOW(pgCOW)
	if err := as.AddRegion(&Region{
		Start: pgLazy, Pages: 4, Name: "lazy",
		Handler: func(as *AddrSpace, va VA, write bool) error {
			fn, err := sys.Mem.Alloc()
			if err != nil {
				return err
			}
			as.MapOwned(va.PageBase(), fn, ReadWrite)
			return nil
		},
	}); err != nil {
		panic(err)
	}
	return sys, as, clk
}

// pageAccesses covers mid-page starts, page-crossing runs, empty runs,
// first-touch faults, protection faults, COW resolution, and runs that
// fail part-way through.
var pageAccesses = []struct {
	va VA
	n  int
}{
	{pgRW + 100, 2*machine.PageSize + 50},
	{pgRW + machine.PageSize - 3, 6},
	{pgRW, 0},
	{pgRO + 17, 300},
	{pgCOW + 5, 40},
	{pgLazy + 4000, machine.PageSize},
	{pgLazy + 2*machine.PageSize, 2 * machine.PageSize},
	{pgRW + 2*machine.PageSize + 10, machine.PageSize}, // runs off the mapping
	{pgEmpty + 8, 16},
	{pgRW + 7, 3 * machine.PageSize / 2},
}

// accessState is everything an access may change besides memory contents.
func accessState(sys *System, clk *simtime.Clock) string {
	hits, misses := sys.TLB.Stats()
	return fmt.Sprintf("clock=%v tlb=%d/%d faults=%d violations=%d frames=%d",
		clk.Now(), hits, misses, sys.Faults, sys.Violations, sys.Mem.Allocated())
}

func memImage(sys *System) []byte {
	var out []byte
	for i := 0; i < sys.Mem.NumFrames(); i++ {
		f := sys.Mem.Frame(mem.FrameNum(i))
		out = append(out, f.Data...)
		if f.Zeroed {
			out = append(out, 'z')
		}
	}
	return out
}

func TestReadPagesMatchesCopyingRead(t *testing.T) {
	refSys, ref, refClk := pageRig()
	sys, as, clk := pageRig()
	for _, a := range pageAccesses {
		want := make([]byte, a.n)
		wantErr := copyingRead(ref, a.va, want)
		var got []byte
		gotErr := as.ReadPages(a.va, a.n, func(p []byte) { got = append(got, p...) })
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("read %#x+%d: error %v, copying read %v", uint64(a.va), a.n, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("read %#x+%d: bytes differ from copying read", uint64(a.va), a.n)
		}
		if w, g := accessState(refSys, refClk), accessState(sys, clk); w != g {
			t.Fatalf("read %#x+%d: %s, copying read %s", uint64(a.va), a.n, g, w)
		}
	}
	if !bytes.Equal(memImage(refSys), memImage(sys)) {
		t.Fatal("reads left memory differing")
	}
}

func TestWritePagesMatchesCopyingWrite(t *testing.T) {
	refSys, ref, refClk := pageRig()
	sys, as, clk := pageRig()
	for i, a := range pageAccesses {
		data := make([]byte, a.n)
		for j := range data {
			data[j] = byte(j*13 + i)
		}
		wantErr := copyingWrite(ref, a.va, data)
		rest := data
		gotErr := as.WritePages(a.va, a.n, func(p []byte) { rest = rest[copy(p, rest):] })
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("write %#x+%d: error %v, copying write %v", uint64(a.va), a.n, gotErr, wantErr)
		}
		if w, g := accessState(refSys, refClk), accessState(sys, clk); w != g {
			t.Fatalf("write %#x+%d: %s, copying write %s", uint64(a.va), a.n, g, w)
		}
		if !bytes.Equal(memImage(refSys), memImage(sys)) {
			t.Fatalf("write %#x+%d: memory (or Zeroed flags) differ from copying write", uint64(a.va), a.n)
		}
	}
}

func TestWritePagesClearsZeroed(t *testing.T) {
	sys, as, _ := pageRig()
	pte, _ := as.Lookup(pgRW)
	sys.Mem.Zero(pte.Frame)
	if err := as.WritePages(pgRW+9, 1, func(p []byte) { p[0] = 0 }); err != nil {
		t.Fatal(err)
	}
	if sys.Mem.Frame(pte.Frame).Zeroed {
		t.Fatal("frame still marked known-zero after a write")
	}
}
