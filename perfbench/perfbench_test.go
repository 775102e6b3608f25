package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fbufs/internal/aggregate"
	"fbufs/internal/machine"
	"fbufs/internal/xkernel"
)

// The self-tests run from this directory; BENCHMARK.json sits one up.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func metricsOf(r *result) map[string]metric {
	out := map[string]metric{}
	for _, m := range r.endToEnd() {
		out[m.name] = m
	}
	return out
}

// quick is the smallest timed phase: a run then measures exactly its
// fixed simulated sample (and the wall samples a p99 needs).
const quick = 1e-9

// TestBenchmarkFile checks BENCHMARK.json against what the command prints.
func TestBenchmarkFile(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	res, err := wireSmallRings(config{seed: 1, seconds: quick})
	if err != nil {
		t.Fatal(err)
	}
	printed := metricsOf(res)
	listed := map[string]bool{}
	for _, m := range b.EndToEnd {
		listed[m.Name] = true
		if p, ok := printed[m.Name]; !ok || p.unit != m.Unit {
			t.Errorf("end_to_end %s (%s): printed as %+v", m.Name, m.Unit, p)
		}
	}
	for name := range printed {
		if !jsonExcluded[name] && !listed[name] {
			t.Errorf("printed metric %s missing from BENCHMARK.json", name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), the command prints %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func simMetrics(r *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range metricsOf(r) {
		if strings.HasPrefix(name, "sim_") {
			out[name] = m.value
		}
	}
	return out
}

// countMetrics are the per-layer metrics that count work rather than time
// it, so they repeat exactly for a seed.
func countMetrics(r *result) map[string]float64 {
	out := map[string]float64{}
	for name, v := range r.layers {
		if !strings.Contains(name, "wall") && !strings.HasPrefix(name, "go.") &&
			!strings.HasPrefix(name, "trace.") && name != "core.lock_wait_ns" {
			out[name] = v
		}
	}
	return out
}

// TestDeterminism: one seed gives bit-identical simulated metrics, traced
// or not, and identical per-layer counts, on every workload.
func TestDeterminism(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			plain, err := w(config{seed: 7, seconds: quick})
			if err != nil {
				t.Fatal(err)
			}
			var traced [2]*result
			for i := range traced {
				if traced[i], err = w(config{seed: 7, seconds: quick, trace: newTracer(time.Now(), nil)}); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range append(traced[:], plain) {
				if !r.correct() {
					t.Fatalf("run not correct: failed %d of %d, breach %v", r.failed, r.attempted, r.breach)
				}
			}
			if a, b := simMetrics(plain), simMetrics(traced[0]); !reflect.DeepEqual(a, b) {
				t.Errorf("tracing moved the simulated metrics:\n%v\n%v", a, b)
			}
			if a, b := simMetrics(traced[0]), simMetrics(traced[1]); !reflect.DeepEqual(a, b) {
				t.Errorf("simulated metrics differ between runs:\n%v\n%v", a, b)
			}
			if name == "hop_depot" {
				// Two workers interleave freely, so their depot exchanges —
				// and the counters that follow them — vary between runs.
				return
			}
			if a, b := countMetrics(traced[0]), countMetrics(traced[1]); !reflect.DeepEqual(a, b) {
				t.Errorf("per-layer counts differ between runs:\n%v\n%v", a, b)
			}
		})
	}
}

// TestSeedChangesMix: another seed sends another size mix.
func TestSeedChangesMix(t *testing.T) {
	mix := func(seed uint64, lo, hi int) []int {
		r := &splitmix{s: seed}
		return sizeMix(r, r, 512, lo, hi, true)
	}
	for _, c := range []struct{ lo, hi int }{{localMinBytes, localMaxBytes}, {hopMinBytes, hopMaxBytes}} {
		a, b := mix(1, c.lo, c.hi), mix(2, c.lo, c.hi)
		if reflect.DeepEqual(a, b) {
			t.Errorf("sizes %d..%d: seeds 1 and 2 give the same mix", c.lo, c.hi)
		}
		for _, n := range a {
			if n < c.lo || n > c.hi {
				t.Fatalf("size %d outside %d..%d", n, c.lo, c.hi)
			}
		}
	}
	r1, err := localUncached(config{seed: 1, seconds: quick})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := localUncached(config{seed: 2, seconds: quick})
	if err != nil {
		t.Fatal(err)
	}
	if r1.simBytes == r2.simBytes {
		t.Errorf("local_uncached: seeds 1 and 2 sent the same bytes (%d)", r1.simBytes)
	}
}

// worse returns how far after moved from before in the metric's bad
// direction, as a share of before.
func worse(before, after float64, better string) float64 {
	if better == "higher" {
		return (before - after) / before
	}
	return (after - before) / before
}

// TestSensitivityCost: raising one entry of the machine cost table by 15%
// moves every simulated metric of local_uncached past its bound.
func TestSensitivityCost(t *testing.T) {
	b := loadBenchmark(t)
	base, err := localUncached(config{seed: 3, seconds: quick})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := localUncached(config{seed: 3, seconds: quick, editCost: func(c *machine.CostTable) {
		c.PageClear = c.PageClear * 115 / 100
	}})
	if err != nil {
		t.Fatal(err)
	}
	m0, m1 := metricsOf(base), metricsOf(slow)
	for _, e := range b.EndToEnd {
		if !strings.HasPrefix(e.Name, "sim_") {
			continue
		}
		if d := worse(m0[e.Name].value, m1[e.Name].value, e.Better); d <= e.Bound {
			t.Errorf("%s moved %.4f with PageClear +15%%, not past its bound %.3f", e.Name, d, e.Bound)
		}
	}
}

// spinLayer busy-waits for d on every message it pushes down.
type spinLayer struct {
	xkernel.Layer
	d time.Duration
}

func (l spinLayer) Push(m *aggregate.Msg) error {
	for t0 := time.Now(); time.Since(t0) < l.d; {
	}
	return l.Layer.Push(m)
}

// TestSensitivityWall: a busy-wait inside one protocol layer moves
// wall_msgs_per_s past its bound, and the traced run charges the added
// time to that layer.
func TestSensitivityWall(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock sensitivity run")
	}
	const spin = 200 * time.Microsecond
	b := loadBenchmark(t)
	var bound float64
	for _, e := range b.EndToEnd {
		if e.Name == "wall_msgs_per_s" {
			bound = e.Bound
		}
	}
	spinIP := func(l xkernel.Layer) xkernel.Layer {
		if l.Name() == "ip" {
			return spinLayer{Layer: l, d: spin}
		}
		return l
	}
	run := func(wrap func(xkernel.Layer) xkernel.Layer, tr *tracer) *result {
		t.Helper()
		r, err := localUncached(config{seed: 4, seconds: quick, wrap: wrap, trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base, slow := run(nil, nil), run(spinIP, nil)
	r0, r1 := metricsOf(base)["wall_msgs_per_s"].value, metricsOf(slow)["wall_msgs_per_s"].value
	if d := worse(r0, r1, "higher"); d <= bound {
		t.Errorf("wall_msgs_per_s moved %.3f (%.0f -> %.0f msg/s) with a %v spin in ip, not past its bound %.2f", d, r0, r1, spin, bound)
	}
	tb, ts := run(nil, newTracer(time.Now(), nil)), run(spinIP, newTracer(time.Now(), nil))
	for _, layer := range []string{"test", "udp", "ip", "loopback"} {
		key := "protocols." + layer + ".self_wall_ns"
		added := ts.layers[key] - tb.layers[key]
		// The spin lasts at least its length, and longer whenever the host
		// deschedules it; either way the time is the ip layer's.
		if layer == "ip" && added < 0.8*float64(spin) {
			t.Errorf("%s: traced self time rose %.0f ns per message, want at least %.0f", key, added, 0.8*float64(spin))
		}
		if layer != "ip" && (added > 0.2*float64(spin) || added < -0.2*float64(spin)) {
			t.Errorf("%s: traced self time moved %.0f ns per message, want within %.0f", key, added, 0.2*float64(spin))
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		sample []float64
		q      float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 1, 1, 2}, 0.5, 1.25},
		{[]float64{1, 1, 1, 2}, 0.99, 2},
		{[]float64{5}, 0.99, 5},
	} {
		if got := quantile(c.sample, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.sample, c.q, got, c.want)
		}
	}
	d := distOf(make([]float64, 2000))
	if d.n != 2000 || d.p99 != 0 {
		t.Errorf("distOf(zeros) = %+v", d)
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileFold: a CPU profile of benchmark code folds into "bench".
func TestProfileFold(t *testing.T) {
	var p cpuProfile
	p.start()
	burn(300 * time.Millisecond)
	shares, err := p.stop()
	if err != nil {
		t.Skip(err)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %.2f of a busy loop in the benchmark, shares %v", shares["bench"], shares)
	}
}

// TestRefusesWithoutSource: run from a directory that holds only
// BENCHMARK.json and this directory, the command fails without a result.
func TestRefusesWithoutSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"../BENCHMARK.json", "run.sh", "go.mod"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "perfbench", filepath.Base(f))
		if f == "../BENCHMARK.json" {
			dst = filepath.Join(dir, "BENCHMARK.json")
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "wire_bulk", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without the source tree: %s", out)
	}
	if strings.Contains(string(out), "{") {
		t.Errorf("run.sh printed a result without the source tree: %s", out)
	}
}
