// Wall-clock parallel driver: the only bench file that runs real
// goroutines against one shared manager. It exists to demonstrate (and, in
// CI under -race, to check) that the facility's data-plane hot paths are
// safe under true concurrency; its throughput numbers depend on the host
// machine and are never written into BENCH_report.json — the committed
// smp_scaling figures come from the deterministic harness in parallel.go.
//
//detlint:parallel
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// ParallelWallClock runs `workers` goroutines of alloc/free cycles over one
// shared cached/volatile path, once through per-worker magazines and once
// through the shared-lock path, and reports measured wall-clock throughput
// plus the facility's real contention counters (fbufbench -parallel N).
func ParallelWallClock(workers, opsPerWorker int) (*Table, error) {
	if workers < 1 {
		workers = 1
	}
	if opsPerWorker < 1 {
		opsPerWorker = 1
	}
	t := &Table{
		Title:  fmt.Sprintf("Wall-clock parallel alloc/free: %d goroutines x %d ops (GOMAXPROCS=%d)", workers, opsPerWorker, runtime.GOMAXPROCS(0)),
		Header: []string{"config", "kops/s", "lock acquires", "lock contended", "mag hits", "mag misses"},
		Note:   "machine-dependent; not part of BENCH_report.json (see the simulated smp_scaling experiment)",
	}
	for _, cfg := range []struct {
		name      string
		magazines bool
	}{{"global-lock", false}, {"magazine", true}} {
		opsPerSec, cont, err := wallClockRun(workers, opsPerWorker, cfg.magazines)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%.0f", opsPerSec/1e3),
			fmt.Sprintf("%d", cont.LockAcquires),
			fmt.Sprintf("%d", cont.LockContended),
			fmt.Sprintf("%d", cont.MagazineHits),
			fmt.Sprintf("%d", cont.MagazineMisses),
		})
	}
	return t, nil
}

// wallClockRun measures one configuration with real goroutines. All system
// costs charge a single shared atomic clock; only the wall time and the
// contention counters are reported.
func wallClockRun(workers, opsPerWorker int, magazines bool) (float64, core.Contention, error) {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 1<<15, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManagerGeometry(sys, reg, 256, 64)
	mgr.WallNow = func() int64 { return time.Now().UnixNano() }
	src := reg.New("src")
	dst := reg.New("dst")
	path, err := mgr.NewPath("smp-wall", core.CachedVolatile(), 1, src, dst)
	if err != nil {
		return 0, core.Contention{}, err
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var mag *core.Magazine
			if magazines {
				mag = path.NewMagazine(0)
				defer mag.Drain()
			}
			for op := 0; op < opsPerWorker; op++ {
				var f *core.Fbuf
				var err error
				if mag != nil {
					f, err = mag.Alloc()
				} else {
					f, err = path.Alloc()
				}
				if err != nil {
					errs[slot] = err
					return
				}
				if mag != nil {
					err = mag.Free(f, src)
				} else {
					err = mgr.Free(f, src)
				}
				if err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, core.Contention{}, err
		}
	}
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(workers*opsPerWorker) / elapsed.Seconds(), mgr.ContentionSnapshot(), nil
}
