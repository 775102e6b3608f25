package conformance

import (
	"flag"
	"testing"
)

// -seeds scales the differential seed matrix; CI runs
// `go test ./internal/conformance -run TestConformance -seeds=200`.
var seeds = flag.Int("seeds", 60, "number of differential seeds to run")

const cmdsPerSeed = 250

// TestConformance is the main differential check: seeded command
// sequences run against the model and the real stack in lockstep, with
// full state audits every few commands. Any divergence fails with a
// shrunk counterexample and a replay instruction.
func TestConformance(t *testing.T) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		if ce := RunSeed(seed, cmdsPerSeed, Config{}); ce != nil {
			t.Fatalf("%s", ce)
		}
	}
}

// TestConformanceCoverage asserts the generated workload actually
// reaches the interesting machinery — a divergence suite that never
// allocates past a quota or overflows a notice list proves nothing.
func TestConformanceCoverage(t *testing.T) {
	var sum Stats
	n := *seeds
	if n > 40 {
		n = 40
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		r, err := newRunner(Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range Generate(seed, 200) {
			r.step = i
			if _, div := r.exec(c); div != nil {
				t.Fatalf("seed %d: %v", seed, div)
			}
		}
		st := r.mgr.Snapshot()
		sum.Allocs += st.Allocs
		sum.CacheHits += st.CacheHits
		sum.Transfers += st.Transfers
		sum.MappingsBuilt += st.MappingsBuilt
		sum.Secures += st.Secures
		sum.NoticesQueued += st.NoticesQueued
		sum.NoticesPiggy += st.NoticesPiggy
		sum.NoticesExplicit += st.NoticesExplicit
		sum.NoticesRing += st.NoticesRing
		sum.FramesReclaimed += st.FramesReclaimed
		sum.LazyRefills += st.LazyRefills
		sum.AllocFailures += st.AllocFailures
	}
	checks := []struct {
		name string
		v    uint64
	}{
		{"Allocs", sum.Allocs}, {"CacheHits", sum.CacheHits},
		{"Transfers", sum.Transfers}, {"MappingsBuilt", sum.MappingsBuilt},
		{"Secures", sum.Secures}, {"NoticesQueued", sum.NoticesQueued},
		{"NoticesPiggy", sum.NoticesPiggy}, {"NoticesExplicit", sum.NoticesExplicit},
		{"NoticesRing", sum.NoticesRing},
		{"FramesReclaimed", sum.FramesReclaimed}, {"LazyRefills", sum.LazyRefills},
		{"AllocFailures", sum.AllocFailures},
	}
	for _, c := range checks {
		if c.v == 0 {
			t.Errorf("workload never exercised %s", c.name)
		}
	}
}

// TestConformanceShrinksInjectedBug is the acceptance check from the
// issue: a seeded semantic bug — skipping the §3.1 write-permission
// revoke (eager secure) on Transfer — must be caught and shrunk to a
// counterexample of at most 8 commands.
func TestConformanceShrinksInjectedBug(t *testing.T) {
	cfg := Config{Hooks: Hooks{SkipRevokeOnTransfer: true}}
	var ce *Counterexample
	for seed := int64(1); seed <= 50; seed++ {
		if ce = RunSeed(seed, cmdsPerSeed, cfg); ce != nil {
			break
		}
	}
	if ce == nil {
		t.Fatal("injected skip-revoke-on-transfer bug was never caught")
	}
	if len(ce.Shrunk) > 8 {
		t.Fatalf("counterexample not minimal: %d commands\n%s", len(ce.Shrunk), ce)
	}
	t.Logf("caught with %d-command counterexample:\n%s", len(ce.Shrunk), ce)
}

// TestConformanceCatchesFIFOReuse injects the wrong free-list
// discipline (FIFO where the path demands LIFO §3.2.2 and vice versa);
// the pointer-identity allocation oracle must notice.
func TestConformanceCatchesFIFOReuse(t *testing.T) {
	cfg := Config{Hooks: Hooks{FIFOReuse: true}}
	var ce *Counterexample
	for seed := int64(1); seed <= 50; seed++ {
		if ce = RunSeed(seed, cmdsPerSeed, cfg); ce != nil {
			break
		}
	}
	if ce == nil {
		t.Fatal("injected free-list order bug was never caught")
	}
	t.Logf("caught with %d-command counterexample", len(ce.Shrunk))
}

// TestConformanceCatchesSkipQuota injects a model that forgets the §3.2
// chunk quota; the error-class oracle must notice the implementation
// refusing an allocation the model allows.
func TestConformanceCatchesSkipQuota(t *testing.T) {
	cfg := Config{Hooks: Hooks{SkipQuota: true}}
	var ce *Counterexample
	for seed := int64(1); seed <= 50; seed++ {
		if ce = RunSeed(seed, cmdsPerSeed, cfg); ce != nil {
			break
		}
	}
	if ce == nil {
		t.Fatal("injected skip-quota bug was never caught")
	}
	t.Logf("caught with %d-command counterexample", len(ce.Shrunk))
}

// TestConformanceCatchesSkipEpochWait injects the epoch-reclaim crash-rule
// bug: a model that retires parked frames without waiting for a pinned
// worker's epoch to drain. The real stack keeps such frames parked, so the
// retire-count oracle (or the parked-frame audit) must diverge — and the
// counterexample must shrink to a handful of commands.
func TestConformanceCatchesSkipEpochWait(t *testing.T) {
	cfg := Config{Hooks: Hooks{SkipEpochWait: true}}
	var ce *Counterexample
	for seed := int64(1); seed <= 50; seed++ {
		if ce = RunSeed(seed, cmdsPerSeed, cfg); ce != nil {
			break
		}
	}
	if ce == nil {
		t.Fatal("injected skip-epoch-wait bug was never caught")
	}
	if len(ce.Shrunk) > 8 {
		t.Fatalf("counterexample not minimal: %d commands\n%s", len(ce.Shrunk), ce)
	}
	t.Logf("caught with %d-command counterexample:\n%s", len(ce.Shrunk), ce)
}

// TestDepotEpochDirected drives the depot and epoch machinery through
// directed sequences the random mix reaches only occasionally: charge past
// the one-unit stack bound into the shard spill, discharge it all back,
// advance with a pinned worker (nothing may retire), crash a domain with
// depot inventory outstanding, and reclaim with the released epoch
// draining. Every step runs under the full-audit cadence of 1 so the
// depot-inventory invariant and parked-frame count are checked after each
// command.
func TestDepotEpochDirected(t *testing.T) {
	scripts := map[string][]Cmd{
		// Fill the pipe free list, charge twice (stack then spill),
		// discharge everything, and re-allocate: the identity oracle proves
		// the depot round-trip preserved the free-list contents.
		"charge-spill-discharge": {
			{Op: OpAllocBatch, A: 0, B: 2}, // pipe x3
			{Op: OpAllocBatch, A: 0, B: 2}, // pipe x3
			{Op: OpFreeBatch, A: 255, B: 255, C: 2},
			{Op: OpFreeBatch, A: 0, B: 255, C: 2},
			{Op: OpDepotExchange, A: 0, B: 0, C: 1}, // charge 2: unit stack
			{Op: OpDepotExchange, A: 0, B: 0, C: 1}, // charge 2: spills to shard
			{Op: OpDepotExchange, A: 0, B: 0, C: 0}, // charge 1: spills to next shard
			{Op: OpDepotExchange, A: 0, B: 1},       // discharge all
			{Op: OpAllocBatch, A: 0, B: 2},
		},
		// Pin the worker's epoch, tear frames down (evict), and advance:
		// nothing may retire until the worker exits and a second advance
		// proves the epoch drained.
		"pinned-epoch-holds-frames": {
			{Op: OpAlloc, A: 0},
			{Op: OpAlloc, A: 0},
			{Op: OpEpochAdvance, A: 2}, // enter
			{Op: OpFree, A: 255, B: 255},
			{Op: OpFree, A: 254, B: 255},
			{Op: OpEvict, A: 0},        // tears down free list: parks frames
			{Op: OpEpochAdvance, A: 0}, // advance: pinned worker holds them
			{Op: OpEpochAdvance, A: 3}, // exit
			{Op: OpEpochAdvance, A: 1}, // advance: epoch drained, frames retire
		},
		// Crash the path's originator while the depot holds inventory: the
		// close must drain the depot through teardown, with the parked
		// frames retiring only on a later advance.
		"crash-with-depot-inventory": {
			{Op: OpAllocBatch, A: 0, B: 2},
			{Op: OpFreeBatch, A: 255, B: 255, C: 2},
			{Op: OpDepotExchange, A: 0, B: 0, C: 1}, // charge 2
			{Op: OpCrash, A: 0},                     // A dies: pipe closes, depot drains
			{Op: OpEpochAdvance, A: 0},
			{Op: OpReclaim, A: 3},
			{Op: OpEpochAdvance, A: 0},
		},
	}
	for name, cmds := range scripts {
		if div := Run(cmds, Config{AuditEvery: 1}); div != nil {
			t.Errorf("%s: %v", name, div)
		}
	}
}

// TestExploreDepotEpoch exhaustively interleaves a depot/epoch stream with
// an alloc/free/reclaim/crash stream: every schedule of the two 4-command
// streams (70 interleavings) must match the sequential model over its
// flattened order — the depot exchange and epoch advance are single
// serializable steps with no schedule-dependent behavior.
func TestExploreDepotEpoch(t *testing.T) {
	streams := [][]Cmd{
		{
			{Op: OpDepotExchange, A: 0, B: 0, C: 1}, // charge pipe
			{Op: OpEpochAdvance, A: 2},              // enter
			{Op: OpDepotExchange, A: 0, B: 1},       // discharge pipe
			{Op: OpEpochAdvance, A: 0},              // advance
		},
		{
			{Op: OpAllocBatch, A: 0, B: 1}, // pipe x2
			{Op: OpFreeBatch, A: 255, B: 255, C: 1},
			{Op: OpReclaim, A: 1},
			{Op: OpCrash, A: 2}, // C dies: pipe + lazy close
		},
	}
	for _, sched := range enumSchedules(2, 4) {
		div, flat, err := runSchedule(streams, sched, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("schedule %v diverged: %v\nflat prefix: %v", sched, div, flat)
		}
	}
}

// TestExploreRandom runs the interleaving explorer over random and
// min-clock schedules: per-worker virtual clocks, sink swapped before
// every step. The facility's functional behavior must be identical
// under every schedule (sequential-consistency envelope).
func TestExploreRandom(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		er, err := Explore(seed, ExploreConfig{Workers: 3, PerWorker: 10, Schedules: 8})
		if err != nil {
			t.Fatal(err)
		}
		if er != nil {
			t.Fatalf("%s", er)
		}
	}
}

// TestExploreExhaustive enumerates every interleaving of two 3-command
// streams (20 schedules) for a batch of seeds.
func TestExploreExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		er, err := Explore(seed, ExploreConfig{Workers: 2, PerWorker: 3, Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if er != nil {
			t.Fatalf("%s", er)
		}
	}
}

// TestExploreCatchesInjectedBug: semantic mutations must surface through
// schedule exploration too, shrunk over the flattened schedule order.
func TestExploreCatchesInjectedBug(t *testing.T) {
	var caught *ExploreResult
	for seed := int64(1); seed <= 20 && caught == nil; seed++ {
		er, err := Explore(seed, ExploreConfig{
			Workers: 2, PerWorker: 8, Schedules: 4,
			Cfg: Config{Hooks: Hooks{SkipRevokeOnTransfer: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		caught = er
	}
	if caught == nil {
		t.Fatal("injected bug never surfaced through exploration")
	}
	t.Logf("caught under schedule %v, shrunk to %d commands", caught.Schedule, len(caught.Shrunk))
}

// TestAggregateConformance runs the aggregate-layer byte-slice
// differential: DAG edits must preserve content, and the rig must
// converge to zero live fbufs once everything is freed.
func TestAggregateConformance(t *testing.T) {
	n := *seeds
	if n > 40 {
		n = 40
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		if err := RunAggregate(seed, 150); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzConformance feeds arbitrary byte strings to the differential
// runner: every 5-byte group decodes to a command (the encoding is
// total), so the fuzzer explores the command space directly, with the
// generated seed corpus as the starting population.
func FuzzConformance(f *testing.F) {
	for seed := int64(1); seed <= 5; seed++ {
		f.Add(encodeCmds(Generate(seed, 40)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cmds := decodeCmds(data)
		if len(cmds) == 0 {
			return
		}
		if div := Run(cmds, Config{}); div != nil {
			t.Fatalf("divergence: %v", div)
		}
	})
}

func encodeCmds(cmds []Cmd) []byte {
	out := make([]byte, 0, len(cmds)*5)
	for _, c := range cmds {
		out = append(out, c.Op, c.A, c.B, c.C, c.D)
	}
	return out
}

func decodeCmds(data []byte) []Cmd {
	var cmds []Cmd
	for i := 0; i+5 <= len(data) && len(cmds) < 400; i += 5 {
		cmds = append(cmds, Cmd{Op: data[i], A: data[i+1], B: data[i+2], C: data[i+3], D: data[i+4]})
	}
	return cmds
}
