package mem

import (
	"testing"
	"testing/quick"
	"unsafe"

	"fbufs/internal/machine"
)

func TestAllocFree(t *testing.T) {
	pm := New(4)
	if pm.NumFrames() != 4 || pm.FreeFrames() != 4 {
		t.Fatalf("fresh pool: %d/%d", pm.FreeFrames(), pm.NumFrames())
	}
	fn, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f := pm.Frame(fn)
	if f.RefCount != 1 || len(f.Data) != machine.PageSize {
		t.Fatalf("fresh frame refcount=%d len=%d", f.RefCount, len(f.Data))
	}
	if pm.Allocated() != 1 {
		t.Fatalf("allocated %d", pm.Allocated())
	}
	if !pm.DecRef(fn) {
		t.Fatal("DecRef to zero should free")
	}
	if pm.FreeFrames() != 4 {
		t.Fatalf("free count %d after free", pm.FreeFrames())
	}
}

func TestExhaustion(t *testing.T) {
	pm := New(2)
	if _, err := pm.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestSharing(t *testing.T) {
	pm := New(2)
	fn, _ := pm.Alloc()
	pm.AddRef(fn)
	if pm.Frame(fn).RefCount != 2 {
		t.Fatalf("refcount %d", pm.Frame(fn).RefCount)
	}
	if pm.DecRef(fn) {
		t.Fatal("first DecRef must not free a shared frame")
	}
	if !pm.DecRef(fn) {
		t.Fatal("last DecRef must free")
	}
}

func TestZeroAndDirtyTracking(t *testing.T) {
	pm := New(1)
	fn, _ := pm.Alloc()
	if pm.Frame(fn).Zeroed {
		t.Fatal("fresh frames must start dirty (stale machine memory)")
	}
	pm.Write(fn, 100, []byte{1, 2, 3})
	if pm.Frame(fn).Zeroed {
		t.Fatal("written frame still marked zero")
	}
	buf := make([]byte, 3)
	pm.Read(fn, 100, buf)
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("read back %v", buf)
	}
	pm.Zero(fn)
	if !pm.Frame(fn).Zeroed {
		t.Fatal("zeroed frame not marked")
	}
	pm.Read(fn, 100, buf)
	if buf[0] != 0 {
		t.Fatal("zero fill did not stick")
	}
}

func TestDirtyFrameReuseKeepsContents(t *testing.T) {
	// Frames are not cleared on alloc: clearing is an explicit costed op.
	pm := New(1)
	fn, _ := pm.Alloc()
	pm.Write(fn, 0, []byte{0xAA})
	pm.DecRef(fn)
	fn2, _ := pm.Alloc()
	if fn2 != fn {
		t.Fatalf("LIFO reuse expected frame %d, got %d", fn, fn2)
	}
	b := make([]byte, 1)
	pm.Read(fn2, 0, b)
	if b[0] != 0xAA {
		t.Fatal("frame contents were implicitly cleared")
	}
	if pm.Frame(fn2).Zeroed {
		t.Fatal("dirty recycled frame marked zeroed")
	}
}

func TestCopy(t *testing.T) {
	pm := New(2)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	pm.Write(a, 0, []byte("fbuf"))
	pm.Copy(b, a)
	buf := make([]byte, 4)
	pm.Read(b, 0, buf)
	if string(buf) != "fbuf" {
		t.Fatalf("copy read back %q", buf)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	cases := map[string]func(){
		"DecRef-free-frame": func() { pm := New(1); fn, _ := pm.Alloc(); pm.DecRef(fn); pm.DecRef(fn) },
		"AddRef-free-frame": func() { pm := New(1); fn, _ := pm.Alloc(); pm.DecRef(fn); pm.AddRef(fn) },
		"invalid-frame":     func() { New(1).Frame(999) },
		"oob-write": func() {
			pm := New(1)
			f, _ := pm.Alloc()
			pm.Write(f, machine.PageSize-1, []byte{1, 2})
		},
	}
	for name, run := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			run()
		}()
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	// Property: any sequence of alloc/addref/decref keeps the pool
	// consistent.
	f := func(ops []uint8) bool {
		pm := New(8)
		var live []FrameNum
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if fn, err := pm.Alloc(); err == nil {
					live = append(live, fn)
				}
			case 1:
				if len(live) > 0 {
					pm.AddRef(live[int(op)%len(live)])
					live = append(live, live[int(op)%len(live)])
				}
			case 2:
				if len(live) > 0 {
					i := int(op) % len(live)
					pm.DecRef(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			if err := pm.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTableEntrySize(t *testing.T) {
	// One Frame per simulated page lives on the Go heap for the whole
	// run; keep the entry at its 32-byte layout.
	if got := unsafe.Sizeof(Frame{}); got != 32 {
		t.Fatalf("Frame is %d bytes, want 32", got)
	}
}
