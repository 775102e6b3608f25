// Command perfbench is the repository benchmark. It drives the fbuf
// facility's public layers (vm, core, aggregate, ipc, rings, xkernel,
// protocols, osiris, netsim) through transfer workloads and reports
// end-to-end metrics on both of the system's clocks: the simulated
// DecStation time the paper's numbers come from, and the wall-clock and
// heap cost of the Go code that computes them. A traced run adds
// per-layer metrics. See README.md in this directory.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload wire_bulk --seed 1 --seconds 40 --trace 0
//
// The benchmark reads the wall clock and runs real workers on purpose, so
// its files opt out of the simulator's determinism lint:
//
//detlint:parallel
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/xkernel"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what a workload run receives.
type config struct {
	seed    uint64
	seconds float64
	// trace, when non-nil, records spans and per-layer counters, and the
	// timed phase is CPU-profiled.
	trace *tracer
	// The sensitivity self-tests inject regressions through these:
	// editCost edits local_uncached's copy of the machine cost table, and
	// wrap wraps each of its protocol layers.
	editCost func(*machine.CostTable)
	wrap     func(xkernel.Layer) xkernel.Layer
}

// gcPercent is the GOGC every workload runs at. The program's live heap is
// a few megabytes, so at Go's default of 100 a collection starts every few
// milliseconds and its mark phase overlaps much of the traffic. How long
// each mark phase takes then depends on whether the host lets the
// collector's worker run on the second vCPU, and the wall-clock gap p99
// moved by up to a third between runs of the same code. At 400 collections
// are four times rarer and that spread roughly halves. Allocation growth
// still shows, in go_allocs_per_msg and go_alloc_bytes_per_msg.
const gcPercent = 400

func init() { debug.SetGCPercent(gcPercent) }

// setupReps is how many times a run builds its hosts and sends the
// warm-up messages; setup_s is the median, and the last build is timed.
const setupReps = 9

// setUp builds and warms a workload setupReps times and returns the last
// build. Each build is timed from a freshly collected heap, so garbage the
// one before left is not charged to it; every build but the last is torn
// down and checked.
func setUp[T any](res *result, build func() (T, error), teardown func(T) (int, error)) (T, error) {
	var x T
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if x, err = build(); err != nil {
			return x, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if _, err := teardown(x); err != nil && res.breach == nil {
				res.breach = err
			}
		}
	}
	return x, nil
}

// workload runs set-up and one timed phase.
type workload func(cfg config) (*result, error)

var workloads = map[string]workload{
	"wire_bulk":        wireBulk,
	"wire_small_rings": wireSmallRings,
	"local_uncached":   localUncached,
	"hop_depot":        hopDepot,
}

// result is one run's measurements.
type result struct {
	attempted, failed int
	setup             []float64 // seconds per set-up repetition
	msgs              int       // completions in the timed phase
	phase             *goPhase
	wall              wallStats // completions at the sink, in wall time
	// The simulated sample: a fixed, seed-determined run of messages, so
	// the sim metrics are bit-identical for a seed however fast the host.
	simLat     []simtime.Duration
	simBytes   int64 // payload delivered after the sample's first delivery
	simSpan    simtime.Duration
	simCPU     simtime.Duration
	simGoodput bool // false where the simulated clock does not advance
	layers     map[string]float64
	notes      []string
	breach     error     // an invariant or leak check failed after teardown
	tracers    []*tracer // per-goroutine tracers besides the run's own
}

type metric struct {
	name, unit string
	value      float64
}

// endToEnd computes the end-to-end metrics in their fixed order.
func (r *result) endToEnd() []metric {
	sim := simDist(r.simLat)
	var cpu float64
	if len(r.simLat) > 0 {
		cpu = float64(r.simCPU) / 1e3 / float64(len(r.simLat))
	}
	perMsg := func(v uint64) float64 { return float64(v) / float64(max(r.msgs, 1)) }
	out := []metric{}
	if r.simGoodput {
		out = append(out, metric{"sim_goodput_mbps", "Mb/s", simtime.Mbps(r.simBytes, r.simSpan)})
	}
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	return append(out,
		metric{"sim_msg_p50_us", "us", sim.p50},
		metric{"sim_msg_p99_us", "us", sim.p99},
		metric{"sim_cpu_us_per_msg", "us", cpu},
		metric{"wall_msgs_per_s", "msg/s", r.wall.rate},
		metric{"wall_msg_p50_us", "us", r.wall.p50},
		metric{"wall_msg_p99_us", "us", r.wall.p99},
		metric{"go_allocs_per_msg", "allocs", perMsg(r.phase.mallocs())},
		metric{"go_alloc_bytes_per_msg", "B", perMsg(r.phase.allocBytes())},
		metric{"heap_peak_mb", "MB", r.phase.heapPeak() / (1 << 20)},
		metric{"setup_s", "s", median(r.setup)},
		metric{"error_rate", "ratio", errRate},
	)
}

// jsonExcluded are end-to-end metrics printed but left out of the JSON
// result line: error_rate is 0 on a correct run, and the result line
// already carries it as attempted and failed.
var jsonExcluded = map[string]bool{"error_rate": true}

func (r *result) correct() bool { return r.failed == 0 && r.breach == nil }

// perLayer are the per-layer metrics a traced run reports, with units.
// Layers a workload does not exercise report 0.
var perLayer = []struct{ name, unit string }{
	{"core.alloc_wall_ns", "ns"},
	{"core.transfer_wall_ns", "ns"},
	{"core.free_wall_ns", "ns"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.mappings_built_per_msg", "count"},
	{"core.frames_reclaimed_per_msg", "count"},
	{"core.notices_piggy_per_msg", "count"},
	{"core.notices_explicit_per_msg", "count"},
	{"core.notices_ring_per_msg", "count"},
	{"core.alloc_failures", "count"},
	{"core.lock_wait_ns", "ns"},
	{"vm.write_wall_ns", "ns"},
	{"vm.read_wall_ns", "ns"},
	{"vm.faults_per_msg", "count"},
	{"vm.tlb_miss_ratio", "ratio"},
	{"mem.frames_allocated_per_msg", "count"},
	{"mem.frames_leaked", "count"},
	{"protocols.test.self_sim_us", "us"},
	{"protocols.udp.self_sim_us", "us"},
	{"protocols.ip.self_sim_us", "us"},
	{"protocols.loopback.self_sim_us", "us"},
	{"protocols.test.self_wall_ns", "ns"},
	{"protocols.udp.self_wall_ns", "ns"},
	{"protocols.ip.self_wall_ns", "ns"},
	{"protocols.loopback.self_wall_ns", "ns"},
	{"protocols.ip.fragments_per_msg", "count"},
	{"ipc.calls_per_msg", "count"},
	{"rings.doorbells_per_msg", "count"},
	{"rings.spin_hit_ratio", "ratio"},
	{"rings.submit_fallbacks_per_msg", "count"},
	{"rings.entries_per_drain", "count"},
	{"rings.notices_per_completion", "count"},
	{"osiris.tx_pdus_per_msg", "count"},
	{"osiris.rx_pdus_per_msg", "count"},
	{"osiris.rx_uncached_allocs", "count"},
	{"osiris.crc_drops", "count"},
	{"netsim.tx_cpu_util", "ratio"},
	{"netsim.rx_cpu_util", "ratio"},
	{"netsim.bus_util", "ratio"},
	{"netsim.run_wall_s", "s"},
	{"go.gc_cycles_per_kmsg", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
}

func init() {
	for _, b := range profileBuckets {
		perLayer = append(perLayer, struct{ name, unit string }{b + ".wall_self_share", "ratio"})
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: wire_bulk, wire_small_rings, local_uncached or hop_depot")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := fs.String("spans", ".bench_build/perfbench-spans.json", "where a traced run writes its spans (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = w(config{seed: *seed, seconds: *seconds})
	} else {
		res, err = tracedRun(w, *seed, *seconds, *spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(stdout, *name, *seed, res, *trace == 1)
	if res.breach != nil {
		fmt.Fprintf(stderr, "perfbench: %s: invariant breach: %v\n", *name, res.breach)
		return 1
	}
	return 0
}

// tracedRun splits the time between an untraced and a traced timed phase
// of the same workload, so the tracing overhead is measured in one
// invocation; the per-layer metrics come from the traced phase.
func tracedRun(w workload, seed uint64, seconds float64, spansPath string) (*result, error) {
	base, err := w(config{seed: seed, seconds: seconds / 2})
	if err != nil {
		return nil, err
	}
	tr := newTracer(time.Now(), nil)
	res, err := w(config{seed: seed, seconds: seconds / 2, trace: tr})
	if err != nil {
		return nil, err
	}
	res.layers["trace.overhead_pct"] = 100 * (base.wall.rate/res.wall.rate - 1)
	res.layers["go.gc_cycles_per_kmsg"] = 1000 * float64(res.phase.gcCycles()) / float64(max(res.msgs, 1))
	res.layers["go.gc_cpu_fraction"] = res.phase.gcFraction()
	res.attempted += base.attempted
	res.failed += base.failed
	if res.breach == nil {
		res.breach = base.breach
	}
	return res, writeSpans(spansPath, append([]*tracer{tr}, res.tracers...))
}

// endTimed closes the phase and, on a traced run, folds the CPU profile
// into per-package wall-clock shares.
func endTimed(cfg config, ph *goPhase, res *result) {
	ph.end()
	res.phase = ph
	if ph.prof == nil {
		return
	}
	shares, err := ph.prof.stop()
	if err != nil {
		res.notes = append(res.notes, err.Error())
	}
	for _, b := range profileBuckets {
		res.layers[b+".wall_self_share"] = shares[b]
	}
}

// report prints the human-readable tables, then the one-line JSON result.
func report(w io.Writer, name string, seed uint64, r *result, traced bool) {
	e2e := r.endToEnd()
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v\n", name, seed, traced)
	sim := simDist(r.simLat)
	fmt.Fprintf(w, "  timed msgs=%d  wall samples=%d in %d blocks of %d (%d beyond each p99)  sim samples=%d (%d beyond p99)  setup reps=%d\n",
		r.msgs, r.wall.n, r.wall.blocks, wallBlock, wallBlock/100, sim.n, sim.beyondP99, len(r.setup))
	for _, m := range e2e {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	out := map[string]any{}
	if traced {
		fmt.Fprintln(w, "  per-layer:")
		for _, m := range perLayer {
			v := r.layers[m.name]
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", m.name, v, m.unit)
			out[m.name] = map[string]any{"value": finite(v), "unit": m.unit}
		}
	} else {
		for _, m := range e2e {
			if !jsonExcluded[m.name] {
				out[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
			}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes copies a tracer's per-layer self times, per message, into the
// layer metrics under "protocols.<layer>".
func selfTimes(layers map[string]float64, t *tracer, msgs int) {
	for _, name := range sortedKeys(t.agg) {
		a := t.agg[name]
		layers[name+".self_sim_us"] = float64(a.selfSim) / 1e3 / float64(max(msgs, 1))
		layers[name+".self_wall_ns"] = float64(a.selfWall) / float64(max(msgs, 1))
	}
}
