package bench

import (
	"fmt"
	"sort"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// SMP scaling experiment.
//
// The facility's determinism contract keeps simulator code single-threaded,
// and every number in BENCH_report.json is a simulated-time result, so the
// SMP experiment models W cores as W logical workers over ONE shared fbuf
// manager, driven by a single goroutine. Each worker owns a private virtual
// clock; the scheduler always steps the worker whose clock is furthest
// behind (ties break by worker index), swapping the system's cost sink to
// that worker's clock for the duration of its step, so real facility costs
// land on the core that incurred them. Cross-core serialization is modelled
// explicitly: each shared resource (path lock, depot lock, each depot shard)
// has a release time, and a worker that needs it first advances its clock to
// that release time (the modelled wait) before occupying it for the
// operation's hold time.
//
// One harness runs two workload shapes. Each round a worker allocates a
// burst of buffers, touching each, then frees the burst:
//
//   - the cycle, a burst of one: a worker holds one buffer at a time, which
//     its private magazine absorbs entirely after the first miss.
//   - the burst, 48 allocs then 48 frees: the shape of a NIC receive ring
//     refill or a pipeline stage draining its input, so every worker crosses
//     its magazine's capacity twice per round and unit exchanges land on
//     shared state.
//
// Each shape brackets the claim with two configurations:
//
//   - "global-lock": every alloc and every free occupies the shared path
//     lock — the facility before per-worker magazines. The serialized
//     section bounds total throughput regardless of worker count.
//   - per-worker magazines over the path's depot ("magazine" in the cycle,
//     "depot" in the burst; the report keys keep those names). Steady-state
//     ops hit the stash and touch no shared state; a unit exchange costs one
//     constant-time swap under the depot's leaf lock plus one loose-inventory
//     shard, and only a miss the depot cannot serve takes the path lock.
//
// The waits recorded against each shard become the per-shard contention
// heatmap published into BENCH_report.json and gated (p99, 10%) against
// BENCH_smp_baseline.json. The schedule, the clocks, and every counter are
// identical on every run. Wall-clock goroutine benchmarks exist too
// (fbufbench -parallel N and the root Benchmark*Parallel functions) but their
// numbers are machine-dependent and deliberately stay out of the committed
// report.

const (
	// smpLockHold models the shared-lock occupancy of one locked alloc or
	// free, or of a magazine miss that carves or refills one item (1.5 us).
	smpLockHold = simtime.Duration(1500)
	// smpItemHold is the shared-lock occupancy per item a magazine refill
	// moves from the free list when the depot is dry (600 ns).
	smpItemHold = simtime.Duration(600)
	// smpDepotHold is the depot-lock occupancy of one whole-unit exchange
	// (200 ns): a constant-time stack swap.
	smpDepotHold = simtime.Duration(200)
	// smpShardHold is the occupancy of the one loose-inventory shard an
	// exchange touches when the unit stack spills or assembles (400 ns).
	smpShardHold = simtime.Duration(400)
	// smpUnitCap is the magazine capacity, and so the depot unit size.
	smpUnitCap = 16
	// smpDepotShards is the sharded free-list fan-out behind the depot
	// NewMagazine installs.
	smpDepotShards = core.DefaultDepotShards
	// SMPSeed is the pinned seed the JSON report and baseline gate use;
	// -exp smp -seed N perturbs shard placement for the determinism matrix.
	SMPSeed = 1
)

// smpShape is one workload of the harness together with its table.
type smpShape struct {
	key     string           // report-key prefix
	rate    string           // throughput unit in the report keys
	burst   int              // allocs, then frees, per round
	rounds  int              // measured rounds per worker
	touch   simtime.Duration // per-alloc application work: the parallel section
	prewarm bool             // park the working set before the measured rounds
	heat    bool             // render the per-shard heatmap of the magazine config
	workers []int
	configs []string // "global-lock", then the magazine configuration
	title   string
	header  []string
	note    func(sh *smpShape, seed int64) string
	// extra records the shape's own report values for one measurement and
	// renders its trailing table columns.
	extra func(vals map[string]float64, cfg string, w int, r *smpBurstRun) []string
}

// smpCycle is the alloc/touch/free cycle: magazines near-linear to 4
// workers while the global lock saturates near 2x.
var smpCycle = &smpShape{
	rate:    "ops/s",
	burst:   1,
	rounds:  2000,
	touch:   simtime.Duration(3000),
	workers: []int{1, 2, 4},
	configs: []string{"global-lock", "magazine"},
	title:   "SMP scaling: parallel alloc/free over one shared path (simulated cores)",
	header:  []string{"config", "workers", "kops/s", "speedup", "lock waits us", "lock ops", "mag hit%"},
	note: func(sh *smpShape, _ int64) string {
		return fmt.Sprintf("deterministic simulated-SMP harness: %d ops/worker, %.1fus touch, %.1fus lock hold, magazines over a depot",
			sh.rounds, sh.touch.Microseconds(), smpLockHold.Microseconds())
	},
	extra: func(vals map[string]float64, cfg string, w int, r *smpBurstRun) []string {
		hitPct := 0.0
		if h, m := r.cont.MagazineHits, r.cont.MagazineMisses; h+m > 0 {
			hitPct = 100 * float64(h) / float64(h+m)
		}
		if w == 4 {
			vals[cfg+" 4w lock_wait_us"] = r.lockWaitUS
			vals[cfg+" 4w lock_acquires"] = float64(r.cont.LockAcquires)
			vals[cfg+" 4w lock_contended"] = float64(r.cont.LockContended)
			if cfg == "magazine" {
				vals["magazine 4w magazine_hits"] = float64(r.cont.MagazineHits)
				vals["magazine 4w magazine_misses"] = float64(r.cont.MagazineMisses)
				vals["magazine 4w magazine_refills"] = float64(r.cont.MagazineRefills)
				vals["magazine 4w magazine_flushes"] = float64(r.cont.MagazineFlushes)
			}
		}
		return []string{fmt.Sprintf("%d", r.lockOps), fmt.Sprintf("%.1f", hitPct)}
	},
}

// smpBursts is the burst sweep, past the 4-worker knee of the cycle into
// the many-core regime.
var smpBursts = &smpShape{
	key:     "burst ",
	rate:    "pairs/s",
	burst:   48, // three magazine units: every round crosses the unit boundary
	rounds:  20,
	touch:   simtime.Duration(1000),
	prewarm: true,
	heat:    true,
	workers: []int{1, 8, 16, 64},
	configs: []string{"global-lock", "depot"},
	title:   "Burst alloc/free: depot vs global lock (simulated cores)",
	header:  []string{"config", "workers", "kpairs/s", "speedup", "lock wait us", "depot wait us", "exchanges"},
	note: func(sh *smpShape, seed int64) string {
		return fmt.Sprintf("burst of %d allocs then %d frees per round, %d rounds/worker, unit %d, %d shards, seed %d",
			sh.burst, sh.burst, sh.rounds, smpUnitCap, smpDepotShards, seed)
	},
	extra: func(vals map[string]float64, cfg string, w int, r *smpBurstRun) []string {
		if cfg == "depot" {
			vals[fmt.Sprintf("burst depot %dw exchanges", w)] = float64(r.cont.DepotExchanges)
			vals[fmt.Sprintf("burst depot %dw assemblies", w)] = float64(r.cont.DepotAssemblies)
			vals[fmt.Sprintf("burst depot %dw spills", w)] = float64(r.cont.DepotSpills)
			vals[fmt.Sprintf("burst depot %dw depot_wait_us", w)] = r.depotWaitUS
		}
		return []string{fmt.Sprintf("%.1f", r.depotWaitUS), fmt.Sprintf("%d", r.exchanges)}
	},
}

// smpBurstRun is one shape x configuration x worker-count measurement.
type smpBurstRun struct {
	opsPerSec   float64              // alloc/free pairs per simulated second
	lockWaitUS  float64              // modelled wait on the shared path lock
	lockOps     uint64               // modelled shared path-lock occupations
	depotWaitUS float64              // modelled wait on the depot lock
	shardWaits  [][]simtime.Duration // per-shard wait samples
	shardVisits []uint64
	exchanges   uint64 // whole-unit depot exchanges across all workers
	cont        core.Contention
}

// runSMPBurst executes the harness for one shape and configuration. For a
// prewarmed shape the setup (on the build clock, unmeasured) carves every
// buffer the sweep will ever use and parks it in the configuration's own
// reservoir — the shared free list, or the depot stack and shards — so the
// measured rounds exercise steady-state reuse, not first-touch carving.
func runSMPBurst(sh *smpShape, workers int, config string, seed int64) (*smpBurstRun, error) {
	buildClk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 1<<15, vm.ClockSink{Clock: buildClk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManagerGeometry(sys, reg, 256, 64)
	src := reg.New("src")
	dst := reg.New("dst")
	path, err := mgr.NewPath("smp", core.CachedVolatile(), 1, src, dst)
	if err != nil {
		return nil, err
	}
	path.SetQuota(-1) // 64 workers x 48 live pages exceed the default quota
	magazines := config != "global-lock"

	if sh.prewarm {
		warm := make([]*core.Fbuf, 0, workers*sh.burst)
		for i := 0; i < workers*sh.burst; i++ {
			f, err := path.Alloc()
			if err != nil {
				return nil, err
			}
			warm = append(warm, f)
		}
		if magazines {
			// Deposit through a scratch magazine so the inventory lands in
			// the depot (stack first, spilling to the shards), not the free
			// list.
			scratch := path.NewMagazine(smpUnitCap)
			for _, f := range warm {
				if err := scratch.Free(f, src); err != nil {
					return nil, err
				}
			}
			scratch.Drain()
		} else {
			for _, f := range warm {
				if err := mgr.Free(f, src); err != nil {
					return nil, err
				}
			}
		}
	}

	type worker struct {
		clk  *simtime.Clock
		mag  *core.Magazine
		held []*core.Fbuf
		idx  int // op index within the round: [0,burst) alloc, then frees
		rnd  int
	}
	ws := make([]*worker, workers)
	for i := range ws {
		w := &worker{clk: &simtime.Clock{}, held: make([]*core.Fbuf, 0, sh.burst)}
		if magazines {
			w.mag = path.NewMagazine(smpUnitCap)
		}
		ws[i] = w
	}
	r := &smpBurstRun{
		shardWaits:  make([][]simtime.Duration, smpDepotShards),
		shardVisits: make([]uint64, smpDepotShards),
	}
	var (
		lockFreeAt  simtime.Time
		depotFreeAt simtime.Time
		shardFreeAt [smpDepotShards]simtime.Time
		lockWait    simtime.Duration
		depotWait   simtime.Duration
	)
	serializeLock := func(w *worker, hold simtime.Duration) {
		if now := w.clk.Now(); now < lockFreeAt {
			lockWait += lockFreeAt - now
			w.clk.AdvanceTo(lockFreeAt)
		}
		w.clk.Advance(hold)
		lockFreeAt = w.clk.Now()
		r.lockOps++
	}
	// n whole-unit exchanges: each a constant hold on the depot lock, then
	// a constant hold on one shard, picked by a seed-perturbed hash so the
	// determinism matrix exercises different placements.
	serializeExchange := func(w *worker, wi int, n uint64) {
		for ; n > 0; n-- {
			if now := w.clk.Now(); now < depotFreeAt {
				depotWait += depotFreeAt - now
				w.clk.AdvanceTo(depotFreeAt)
			}
			w.clk.Advance(smpDepotHold)
			depotFreeAt = w.clk.Now()
			s := int((w.mag.ExchangeCount() + uint64(wi) + uint64(seed)) % smpDepotShards)
			wait := simtime.Duration(0)
			if now := w.clk.Now(); now < shardFreeAt[s] {
				wait = shardFreeAt[s] - now
				w.clk.AdvanceTo(shardFreeAt[s])
			}
			w.clk.Advance(smpShardHold)
			shardFreeAt[s] = w.clk.Now()
			r.shardWaits[s] = append(r.shardWaits[s], wait)
			r.shardVisits[s]++
			r.exchanges++
		}
	}

	for finished := 0; finished < workers; {
		// Step the unfinished worker furthest behind in virtual time.
		var w *worker
		wi := -1
		for i, cand := range ws {
			if cand.rnd >= sh.rounds {
				continue
			}
			if w == nil || cand.clk.Now() < w.clk.Now() {
				w, wi = cand, i
			}
		}
		sys.SetSink(vm.ClockSink{Clock: w.clk})
		if w.idx < sh.burst { // alloc half
			if w.mag == nil {
				f, err := path.Alloc()
				if err != nil {
					return nil, err
				}
				w.held = append(w.held, f)
				serializeLock(w, smpLockHold)
			} else {
				depthBefore, exchBefore := w.mag.Depth(), w.mag.ExchangeCount()
				f, err := w.mag.Alloc()
				if err != nil {
					return nil, err
				}
				w.held = append(w.held, f)
				if n := w.mag.ExchangeCount() - exchBefore; n > 0 {
					serializeExchange(w, wi, n)
				} else if depthBefore == 0 {
					// The depot was dry: the miss refilled from the free
					// list item by item, or carved, under the path lock.
					if moved := w.mag.Depth() + 1; moved > 1 {
						serializeLock(w, smpItemHold*simtime.Duration(moved))
					} else {
						serializeLock(w, smpLockHold)
					}
				}
			}
			w.clk.Advance(sh.touch)
		} else { // free half
			f := w.held[len(w.held)-1]
			w.held = w.held[:len(w.held)-1]
			if w.mag == nil {
				if err := mgr.Free(f, src); err != nil {
					return nil, err
				}
				serializeLock(w, smpLockHold)
			} else {
				exchBefore := w.mag.ExchangeCount()
				if err := w.mag.Free(f, src); err != nil {
					return nil, err
				}
				serializeExchange(w, wi, w.mag.ExchangeCount()-exchBefore)
			}
		}
		w.idx++
		if w.idx >= 2*sh.burst {
			w.idx = 0
			w.rnd++
			if w.rnd >= sh.rounds {
				finished++
			}
		}
	}

	// Teardown charges go back to the build clock; the measurement is the
	// makespan — the furthest-ahead worker clock when the last op retires.
	sys.SetSink(vm.ClockSink{Clock: buildClk})
	var makespan simtime.Time
	for _, w := range ws {
		if w.clk.Now() > makespan {
			makespan = w.clk.Now()
		}
		if w.mag != nil {
			w.mag.Drain()
		}
	}
	if makespan <= 0 {
		return nil, fmt.Errorf("bench: smp run makespan = %d", makespan)
	}
	pairs := workers * sh.rounds * sh.burst
	r.opsPerSec = float64(pairs) / (float64(makespan) / 1e9)
	r.lockWaitUS = lockWait.Microseconds()
	r.depotWaitUS = depotWait.Microseconds()
	r.cont = mgr.ContentionSnapshot()
	return r, nil
}

// shardWaitP99 is the deterministic p99 of one shard's wait samples: the
// samples are a fixed schedule's outputs, so sorting and indexing needs no
// estimator. Returns 0 for an unvisited shard.
func shardWaitP99(samples []simtime.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]simtime.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)*99)/100])
}

// smpSweep runs one shape's sweep, merging its report values and rendering
// its table, plus the per-shard contention heatmap when the shape has one.
func smpSweep(sh *smpShape, seed int64, vals map[string]float64) ([]*Table, error) {
	t := &Table{Title: sh.title, Header: sh.header, Note: sh.note(sh, seed)}
	tables := []*Table{t}
	var heat *Table
	if sh.heat {
		heat = &Table{
			Title: "Depot shard contention heatmap (p99 modelled wait ns per shard)",
			Header: append([]string{"workers"}, func() []string {
				h := make([]string, smpDepotShards)
				for i := range h {
					h[i] = fmt.Sprintf("s%d", i)
				}
				return h
			}()...),
			Note: "each cell: p99 of the virtual-clock waits workers spent entering that loose-inventory shard during unit assembly/spill",
		}
		tables = append(tables, heat)
	}
	for _, cfg := range sh.configs {
		var base float64
		for _, w := range sh.workers {
			r, err := runSMPBurst(sh, w, cfg, seed)
			if err != nil {
				return nil, err
			}
			if w == sh.workers[0] {
				base = r.opsPerSec
			}
			speedup := r.opsPerSec / base
			vals[fmt.Sprintf("%s%s %dw %s", sh.key, cfg, w, sh.rate)] = r.opsPerSec
			vals[fmt.Sprintf("speedup %s%s %dw", sh.key, cfg, w)] = speedup
			t.Rows = append(t.Rows, append([]string{
				cfg,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.0f", r.opsPerSec/1e3),
				fmt.Sprintf("%.2f", speedup),
				fmt.Sprintf("%.1f", r.lockWaitUS),
			}, sh.extra(vals, cfg, w, r)...))
			if heat != nil && cfg != "global-lock" {
				row := []string{fmt.Sprintf("%d", w)}
				for s := 0; s < smpDepotShards; s++ {
					p99 := shardWaitP99(r.shardWaits[s])
					vals[fmt.Sprintf("%s%s %dw shard %d wait p99_ns", sh.key, cfg, w, s)] = p99
					vals[fmt.Sprintf("%s%s %dw shard %d visits", sh.key, cfg, w, s)] = float64(r.shardVisits[s])
					row = append(row, fmt.Sprintf("%.0f", p99))
				}
				heat.Rows = append(heat.Rows, row)
			}
		}
	}
	return tables, nil
}

// SMPScaling renders the smp_scaling experiment — the cycle sweep, the
// burst sweep, and the shard heatmap — as text tables (fbufbench -exp smp).
func SMPScaling(seed int64) ([]*Table, error) {
	_, tables, err := smpAllValues(seed)
	return tables, err
}

// smpAllValues runs both shapes into one value map — the smp_scaling
// experiment of BENCH_report.json.
func smpAllValues(seed int64) (map[string]float64, []*Table, error) {
	vals := make(map[string]float64)
	var tables []*Table
	for _, sh := range []*smpShape{smpCycle, smpBursts} {
		ts, err := smpSweep(sh, seed, vals)
		if err != nil {
			return nil, nil, err
		}
		tables = append(tables, ts...)
	}
	return vals, tables, nil
}

// SMPReport builds a report holding only the smp_scaling experiment — what
// `fbufbench -exp smp -json` writes and the CI smp-depot job gates on. It
// always uses the pinned SMPSeed so baselines compare across machines.
// Headline: the burst depot speedup at 8 workers, the PR's >=6x claim.
func SMPReport() (*Report, error) {
	vals, _, err := smpAllValues(SMPSeed)
	if err != nil {
		return nil, err
	}
	rep := NewReport()
	rep.Experiments["smp_scaling"] = Experiment{
		Unit:     "ops/s (speedups and counters unitless)",
		Headline: vals["speedup burst depot 8w"],
		Values:   vals,
	}
	return rep, nil
}

// CompareSMP gates the shard-contention heatmap p99s the same way the
// audit, overload, and rings gates do (`fbufbench -exp smp -baseline ...`).
func CompareSMP(baseline, current *Report) error {
	return compareP99(baseline, current, "smp_scaling")
}
