package core

import (
	"sync"
	"testing"
)

// Parallel stress tests: real goroutines over one shared manager, meant to
// run under -race (CI's smp job does `go test -race -run Parallel ./...`).
// They assert the data-plane concurrency contract of DESIGN.md section 10:
// Alloc/Free/Transfer/DupRef from many goroutines are safe once path setup
// is done, and the facility's invariants hold at quiescence. fbsan stays
// enabled throughout so the lifecycle checking itself is exercised under
// concurrency.

// parallelRig builds a rig with the sanitizer collecting (not panicking on)
// violations; any violation fails the test at the end.
func parallelRig(t *testing.T) (*rig, func()) {
	t.Helper()
	r := newRig(t)
	san := r.mgr.EnableSanitizer()
	var mu sync.Mutex
	var violations []string
	san.OnViolation = func(msg string) {
		mu.Lock()
		violations = append(violations, msg)
		mu.Unlock()
	}
	return r, func() {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, v := range violations {
			t.Errorf("fbsan: %s", v)
		}
	}
}

// TestParallelMagazineAllocFree hammers one cached/volatile path from many
// goroutines, each through a private magazine.
func TestParallelMagazineAllocFree(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 8, 2000
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			mag := p.NewMagazine(0)
			defer mag.Drain()
			for op := 0; op < ops; op++ {
				f, err := mag.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := mag.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	// Every worker's magazine fronts the one depot the first of them
	// installed, and after Drain the free list plus that depot account
	// for every free fbuf.
	if p.Depot() == nil {
		t.Fatal("magazines created on a fresh path installed no depot")
	}
	checkSan()
	r.check(t)

	cont := r.mgr.ContentionSnapshot()
	if got := cont.MagazineHits + cont.MagazineMisses; got != workers*ops {
		t.Errorf("hits+misses = %d, want %d", got, workers*ops)
	}
	if cont.MagazineHits < workers*ops/2 {
		t.Errorf("MagazineHits = %d: steady state should be stash-served", cont.MagazineHits)
	}
	st := r.mgr.Snapshot()
	if st.Allocs != workers*ops || st.Frees != workers*ops {
		t.Errorf("Allocs/Frees = %d/%d, want %d each", st.Allocs, st.Frees, workers*ops)
	}
}

// TestParallelGlobalAllocFree is the same stress through the shared-lock
// path (no magazines): every op contends on the path free-list lock.
func TestParallelGlobalAllocFree(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 8, 1000
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				f, err := p.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestParallelTransfer runs the full reference flow — alloc, dup, transfer,
// free from both ends — concurrently, exercising the atomic refcount and
// write-permission transitions.
func TestParallelTransfer(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 6, 500
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				f, err := p.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.DupRef(f, r.src); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.dst); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestParallelCrossPath splits workers across two independent paths of one
// manager, exercising the sharded (per-chunk, per-region) manager state.
func TestParallelCrossPath(t *testing.T) {
	r, checkSan := parallelRig(t)
	p1, err := r.mgr.NewPath("p1", CachedVolatile(), 1, r.src, r.dst)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.mgr.NewPath("p2", CachedVolatile(), 2, r.net, r.dst)
	if err != nil {
		t.Fatal(err)
	}

	const workers, ops = 8, 1000
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p, owner := p1, r.src
			if slot%2 == 1 {
				p, owner = p2, r.net
			}
			mag := p.NewMagazine(8)
			defer mag.Drain()
			for op := 0; op < ops; op++ {
				f, err := mag.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := mag.Free(f, owner); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestMagazineCounters pins the allocator ladder and its deferred counters
// single-threaded: hits are stash pops, misses are Alloc calls that found
// both magazines empty (whether or not the refill found anything), a full
// stash rotates into prev and only a second full one reaches the depot,
// refills and flushes count only operations that actually moved buffers,
// and locals merge into the shared Contention group on every miss,
// exchange, and Drain.
func TestMagazineCounters(t *testing.T) {
	r := newRig(t)
	r.mgr.EnableSanitizer()
	p := r.path(t, CachedVolatile(), 1)
	mag := p.NewMagazine(4)

	// Empty stash, empty shared list: a miss that carves. The miss path
	// merges, so the shared group sees it at once — and no refill is
	// counted for a move of zero buffers.
	a, err := mag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	cont := r.mgr.ContentionSnapshot()
	if cont.MagazineMisses != 1 || cont.MagazineHits != 0 || cont.MagazineRefills != 0 {
		t.Fatalf("after carve miss: %+v", cont)
	}

	// Free to the stash, realloc: a hit, deferred locally until a merge.
	if err := mag.Free(a, r.src); err != nil {
		t.Fatal(err)
	}
	if mag.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", mag.Depth())
	}
	a, err = mag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, refills, flushes := mag.LocalStats()
	if hits != 1 || misses != 0 || refills != 0 || flushes != 0 {
		t.Fatalf("LocalStats = %d,%d,%d,%d, want 1,0,0,0 (hit deferred)", hits, misses, refills, flushes)
	}
	if cont = r.mgr.ContentionSnapshot(); cont.MagazineHits != 0 {
		t.Fatalf("MagazineHits = %d before any merge, want 0", cont.MagazineHits)
	}
	if err := mag.Free(a, r.src); err != nil {
		t.Fatal(err)
	}

	// Seed the shared free list with four buffers, empty the stash, and
	// miss again: the depot is dry, so one refill moves the whole hot tail
	// of the free list (up to cap).
	seed := make([]*Fbuf, 4)
	for i := range seed {
		if seed[i], err = p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range seed {
		if err := r.mgr.Free(f, r.src); err != nil {
			t.Fatal(err)
		}
	}
	if a, err = mag.Alloc(); err != nil { // pops the stashed one: hit
		t.Fatal(err)
	}
	b, err := mag.Alloc() // stash empty: miss, refill of 4, pop 1
	if err != nil {
		t.Fatal(err)
	}
	if mag.Depth() != 3 {
		t.Fatalf("Depth after refill+pop = %d, want 3", mag.Depth())
	}
	cont = r.mgr.ContentionSnapshot()
	if cont.MagazineRefills != 1 || cont.MagazineMisses != 2 || cont.MagazineHits != 2 {
		t.Fatalf("after refill: %+v", cont)
	}

	// Fill the stash to capacity: the push that reaches cap rotates the
	// loaded magazine into prev, locally — no flush, no exchange.
	if err := mag.Free(a, r.src); err != nil { // push to 4 == cap: rotate
		t.Fatal(err)
	}
	if mag.Depth() != 4 {
		t.Fatalf("Depth after rotation = %d, want 4", mag.Depth())
	}
	cont = r.mgr.ContentionSnapshot()
	if cont.MagazineFlushes != 0 || cont.DepotExchanges != 0 || mag.ExchangeCount() != 0 {
		t.Fatalf("rotation reached shared state: %+v", cont)
	}

	// Fill the loaded magazine again while prev is full: exactly one
	// whole-unit ExchangeFull moves prev into the depot.
	more := []*Fbuf{b}
	for i := 0; i < 3; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, f)
	}
	for _, f := range more {
		if err := mag.Free(f, r.src); err != nil {
			t.Fatal(err)
		}
	}
	if mag.Depth() != 4 {
		t.Fatalf("Depth after exchange = %d, want 4", mag.Depth())
	}
	cont = r.mgr.ContentionSnapshot()
	if cont.DepotExchanges != 1 || cont.MagazineFlushes != 1 || mag.ExchangeCount() != 1 {
		t.Fatalf("after both full: %+v, ExchangeCount %d; want one exchange", cont, mag.ExchangeCount())
	}
	if inv := p.Depot().Inventory(); inv != 4 {
		t.Fatalf("depot inventory = %d, want the 4-fbuf unit", inv)
	}

	// Drain empties both magazines onto the shared list and merges the
	// remaining locals; the facility's books must balance afterwards.
	mag.Drain()
	if mag.Depth() != 0 || p.FreeListLen() != 4 {
		t.Fatalf("after Drain: Depth = %d, free list %d; want 0, 4", mag.Depth(), p.FreeListLen())
	}
	if hits, misses, refills, flushes = mag.LocalStats(); hits+misses+refills+flushes != 0 {
		t.Fatalf("LocalStats after Drain = %d,%d,%d,%d, want zeros", hits, misses, refills, flushes)
	}
	st := r.mgr.Snapshot()
	if st.Allocs != st.Frees {
		t.Fatalf("Allocs = %d, Frees = %d at quiescence", st.Allocs, st.Frees)
	}
	r.check(t)
}

// TestMagazineFallbacks pins the slow paths: foreign-path and partial-drop
// frees route through the manager, and a magazine over an uncached path
// never stashes.
func TestMagazineFallbacks(t *testing.T) {
	r := newRig(t)
	r.mgr.EnableSanitizer()
	p := r.path(t, CachedVolatile(), 1)
	mag := p.NewMagazine(4)

	// Transferred ref outstanding: not the sole holder, so Free takes the
	// full path (notices, no stash).
	f, err := mag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	if err := mag.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	if mag.Depth() != 0 {
		t.Fatalf("partial drop stashed: Depth = %d, want 0", mag.Depth())
	}
	if err := r.mgr.Free(f, r.dst); err != nil {
		t.Fatal(err)
	}

	// Uncached path: Free tears the fbuf down instead of stashing.
	up, err := r.mgr.NewPath("uncached", Uncached(), 1, r.src, r.dst)
	if err != nil {
		t.Fatal(err)
	}
	umag := up.NewMagazine(4)
	uf, err := umag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := umag.Free(uf, r.src); err != nil {
		t.Fatal(err)
	}
	if umag.Depth() != 0 {
		t.Fatalf("uncached free stashed: Depth = %d, want 0", umag.Depth())
	}

	mag.Drain()
	umag.Drain()
	r.check(t)
}

// TestSteadyStateAllocFreeZeroAllocs pins the recycled fbuf's reference map
// being reset in place: once warm, neither a magazine Alloc/Free pair nor a
// DataPath.Alloc/Manager.Free pair allocates on the Go heap.
func TestSteadyStateAllocFreeZeroAllocs(t *testing.T) {
	if sanitizerDefault {
		t.Skip("fbsan forced on via build tag or FBSAN=1: its poison table allocates")
	}
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	mag := p.NewMagazine(0)
	pairs := map[string]func(){
		"Magazine": func() {
			f, err := mag.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := mag.Free(f, r.src); err != nil {
				t.Fatal(err)
			}
		},
		"DataPath": func() {
			f, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Free(f, r.src); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, pair := range pairs {
		pair() // warm: carve the fbuf and its reference map
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("%s Alloc/Free pair: %v allocs, want 0", name, n)
		}
	}
	mag.Drain()
	r.check(t)
}
