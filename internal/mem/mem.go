// Package mem implements the simulated physical memory: a pool of page
// frames backed by real Go byte slices. Because frames hold actual bytes,
// "zero-copy" transfer in this repository is genuine — when two simulated
// protection domains map the same frame, they read and write the very same
// storage — and data-integrity tests can verify byte-for-byte delivery
// through arbitrary chains of mappings.
//
// Frame allocation, freeing, and zero-filling charge their calibrated costs
// to the host clock at the call sites in package vm; this package is pure
// mechanism.
package mem

import (
	"errors"
	"fmt"
	"sync"

	"fbufs/internal/machine"
)

// FrameNum identifies a physical page frame.
type FrameNum int32

// NoFrame is the sentinel for "no frame".
const NoFrame FrameNum = -1

// Frame is one physical page. The frame table holds one Frame per page of
// simulated memory, so the struct is kept to 32 bytes.
type Frame struct {
	// Data is the page's storage; always machine.PageSize bytes.
	Data []byte
	// RefCount is the number of address-space mappings referencing the
	// frame. A frame returns to the free list only when this drops to 0.
	RefCount int32
	// Zeroed records that the frame is known to contain only zero bytes,
	// so a security clear can be skipped.
	Zeroed bool
	free   bool
}

// ErrOutOfMemory is returned when the frame pool is exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// PhysMem is a fixed-size pool of page frames.
//
// Concurrency contract: the pool bookkeeping (free list, refcounts, the
// allocated count) is guarded by an internal mutex, so Alloc/AddRef/DecRef
// may be called from concurrent workers. Frame *contents* (Data, Zeroed)
// are caller-synchronized: a frame's bytes are owned by whoever holds a
// mapping to it, exactly as on real hardware, and the simulator's upper
// layers serialize access per fbuf.
type PhysMem struct {
	mu     sync.Mutex
	frames []Frame
	// free is a LIFO stack of free frame numbers. LIFO maximizes the
	// chance a re-allocated frame is still cache- and zero-state-warm,
	// mirroring the paper's LIFO fbuf free lists.
	free []FrameNum

	allocated int
}

// New creates a physical memory of nframes page frames.
func New(nframes int) *PhysMem {
	pm := &PhysMem{
		frames: make([]Frame, nframes),
		free:   make([]FrameNum, 0, nframes),
	}
	// Push in reverse so frame 0 is allocated first; storage is allocated
	// lazily on first allocation of each frame. Frames start dirty: a
	// machine that has been running holds stale data in free frames, so
	// security clears are genuinely needed — experiments must not dodge
	// clearing costs by drawing from never-used memory.
	for i := nframes - 1; i >= 0; i-- {
		pm.frames[i].free = true
		pm.free = append(pm.free, FrameNum(i))
	}
	return pm
}

// NumFrames returns the pool size.
func (pm *PhysMem) NumFrames() int { return len(pm.frames) }

// FreeFrames returns the number of currently free frames.
func (pm *PhysMem) FreeFrames() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return len(pm.free)
}

// Allocated returns the number of frames currently in use.
func (pm *PhysMem) Allocated() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.allocated
}

// Alloc takes a frame from the free list with an initial reference count of
// one. The frame's previous contents are preserved (clearing is an explicit,
// costed operation — the paper charges 57 us to zero a page and fbuf caching
// exists to avoid exactly that).
func (pm *PhysMem) Alloc() (FrameNum, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if len(pm.free) == 0 {
		return NoFrame, ErrOutOfMemory
	}
	fn := pm.free[len(pm.free)-1]
	pm.free = pm.free[:len(pm.free)-1]
	f := &pm.frames[fn]
	if f.Data == nil {
		f.Data = make([]byte, machine.PageSize)
	}
	f.free = false
	f.RefCount = 1
	pm.allocated++
	return fn, nil
}

// Frame returns the frame structure for fn. It panics on an invalid frame
// number; callers hold frame numbers only through the VM layer, so an
// invalid number is a simulator bug, not a simulated-program error.
func (pm *PhysMem) Frame(fn FrameNum) *Frame {
	if fn < 0 || int(fn) >= len(pm.frames) {
		panic(fmt.Sprintf("mem: invalid frame %d", fn))
	}
	return &pm.frames[fn]
}

// RefCount returns the frame's current mapping reference count under the
// pool lock (the COW resolver's sharing test).
func (pm *PhysMem) RefCount(fn FrameNum) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return int(pm.Frame(fn).RefCount)
}

// AddRef increments a frame's reference count (a new mapping shares it).
func (pm *PhysMem) AddRef(fn FrameNum) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	f := pm.Frame(fn)
	if f.free {
		panic(fmt.Sprintf("mem: AddRef on free frame %d", fn))
	}
	f.RefCount++
}

// DecRef decrements a frame's reference count, returning it to the free
// list when the count reaches zero. It reports whether the frame was freed.
func (pm *PhysMem) DecRef(fn FrameNum) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	f := pm.Frame(fn)
	if f.free {
		panic(fmt.Sprintf("mem: DecRef on free frame %d", fn))
	}
	if f.RefCount <= 0 {
		panic(fmt.Sprintf("mem: refcount underflow on frame %d", fn))
	}
	f.RefCount--
	if f.RefCount > 0 {
		return false
	}
	f.free = true
	pm.allocated--
	pm.free = append(pm.free, fn)
	return true
}

// Zero fills the frame with zero bytes and marks it Zeroed. The 57 us cost
// is charged by the caller.
func (pm *PhysMem) Zero(fn FrameNum) {
	f := pm.Frame(fn)
	for i := range f.Data {
		f.Data[i] = 0
	}
	f.Zeroed = true
}

// Copy copies the contents of frame src to frame dst (one page copy; cost
// charged by the caller). The destination is no longer known-zero.
func (pm *PhysMem) Copy(dst, src FrameNum) {
	d, s := pm.Frame(dst), pm.Frame(src)
	copy(d.Data, s.Data)
	d.Zeroed = s.Zeroed
}

// Write stores data into the frame at the given offset. The frame is no
// longer known-zero. It panics if the write overruns the page; the VM layer
// splits accesses at page boundaries.
func (pm *PhysMem) Write(fn FrameNum, offset int, data []byte) {
	f := pm.Frame(fn)
	if offset < 0 || offset+len(data) > len(f.Data) {
		panic("mem: write outside frame")
	}
	copy(f.Data[offset:], data)
	if len(data) > 0 {
		f.Zeroed = false
	}
}

// Read copies bytes out of the frame at the given offset into buf.
func (pm *PhysMem) Read(fn FrameNum, offset int, buf []byte) {
	f := pm.Frame(fn)
	if offset < 0 || offset+len(buf) > len(f.Data) {
		panic("mem: read outside frame")
	}
	copy(buf, f.Data[offset:])
}

// CheckInvariants validates internal consistency: every frame is either on
// the free list with refcount 0, or allocated with refcount > 0, and the
// free list has no duplicates. Tests call this after operation sequences,
// at quiescence (no concurrent pool mutation).
func (pm *PhysMem) CheckInvariants() error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	onFree := make(map[FrameNum]bool, len(pm.free))
	for _, fn := range pm.free {
		if onFree[fn] {
			return fmt.Errorf("mem: frame %d appears twice on free list", fn)
		}
		onFree[fn] = true
	}
	allocated := 0
	for i := range pm.frames {
		fn := FrameNum(i)
		f := &pm.frames[i]
		switch {
		case f.free && !onFree[fn]:
			return fmt.Errorf("mem: free frame %d missing from free list", fn)
		case !f.free && onFree[fn]:
			return fmt.Errorf("mem: allocated frame %d on free list", fn)
		case f.free && f.RefCount != 0:
			return fmt.Errorf("mem: free frame %d has refcount %d", fn, f.RefCount)
		case !f.free && f.RefCount <= 0:
			return fmt.Errorf("mem: allocated frame %d has refcount %d", fn, f.RefCount)
		}
		if !f.free {
			allocated++
		}
	}
	if allocated != pm.allocated {
		return fmt.Errorf("mem: allocated count %d != actual %d", pm.allocated, allocated)
	}
	return nil
}
