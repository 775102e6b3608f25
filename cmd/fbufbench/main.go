// Command fbufbench regenerates the tables and figures of the fbufs paper
// (Druschel & Peterson, SOSP 1993) on the simulated DecStation testbed.
//
// Usage:
//
//	fbufbench [-exp table1|fig3|fig4|fig5|fig6|cpuload|smp|audit|ablations|chaos|overload|all]
//	          [-parallel N] [-seed N]
//	          [-json] [-json-out BENCH_report.json]
//	          [-baseline BENCH_audit_baseline.json] [-audit-trace out.json]
//	          [-trace out.json] [-metrics out.json]
//
// Output is plain text: one aligned table per paper table, one
// column-per-series table per paper figure. EXPERIMENTS.md records the
// paper-vs-measured comparison for every entry. -json additionally writes
// the machine-readable BENCH_report.json (headline simulated metrics per
// experiment, for tracking the perf trajectory across PRs); with -exp audit
// the JSON holds only the latency-attribution experiment. -trace and
// -metrics export the observability layer's Chrome trace-event JSON and
// metrics snapshot for the benchmark run. -exp audit profiles the fig5
// cached path per transfer stage; -audit-trace writes the audit flight
// recorder's Perfetto dump, and -baseline compares the audit p99s against a
// checked-in report, exiting nonzero on a >10% regression (the CI gate).
// -exp overload runs the production-shaped multi-tenant saturation
// scenario (per-class latency, path-cache eviction sweep, admission
// rejections, copy-fallback duty cycle); -seed N narrows it to one seed
// for CI matrix fan-out, and -json/-baseline write and gate an
// overload-only report the same way the audit pair does.
// -exp smp prints the deterministic simulated-SMP scaling tables — the
// cycle sweep, the 8/16/64-worker burst sweep (global lock vs magazines
// over a depot), and the per-shard depot contention heatmap; -seed N perturbs
// the burst harness's shard placement for the determinism matrix, and
// -json/-baseline write and gate an smp-only report (heatmap p99s)
// against BENCH_smp_baseline.json like the other gates. -parallel N
// additionally runs the wall-clock driver with N real goroutines (opt-in:
// the default run stays single-threaded and deterministic, and wall-clock
// numbers never enter the JSON report).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fbufs/internal/bench"
	"fbufs/internal/obs"
)

// validExperiments lists the -exp spellings ("chaos" runs only when named
// explicitly; "all" covers the rest).
var validExperiments = []string{
	"table1", "fig3", "fig4", "fig5", "fig6", "cpuload", "smp", "audit", "ablations", "chaos", "overload", "rings", "all",
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig3, fig4, fig5, fig6, cpuload, smp, audit, ablations, chaos, overload, rings, all (chaos, overload, and rings not in all)")
	seed := flag.Int64("seed", 0, "run -exp overload or -exp rings with this single seed (0 = overload matrix / pinned rings seed; the JSON experiments always use the pinned report seed)")
	parallel := flag.Int("parallel", 0, "also run the wall-clock parallel driver with N real goroutines (0 = off; numbers not written to the JSON report)")
	jsonOut := flag.Bool("json", false, "write the machine-readable benchmark report")
	jsonPath := flag.String("json-out", "BENCH_report.json", "path for the -json report")
	baseline := flag.String("baseline", "", "compare the audit experiment against this baseline report; exit 1 on a >10% p99 regression")
	auditTrace := flag.String("audit-trace", "", "write the audit flight recorder's Perfetto dump to this file")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot to this file")
	flag.Parse()

	var o *obs.Observer
	if *tracePath != "" || *metricsPath != "" {
		o = obs.New(1 << 18)
		bench.SetObserver(o)
	}
	if err := run(os.Stdout, *exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "fbufbench:", err)
		os.Exit(1)
	}
	if *parallel > 0 {
		if err := runWallClock(os.Stdout, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
	}

	// The audit artifacts (audit-only JSON, Perfetto dump, baseline gate)
	// share one run; -exp overload routes the JSON and the gate to the
	// overload experiment instead.
	var auditRep *bench.Report
	var auditRes *bench.AuditResult
	if (*baseline != "" && *exp != "overload" && *exp != "rings" && *exp != "smp") || *auditTrace != "" || (*jsonOut && *exp == "audit") {
		var err error
		auditRep, auditRes, err = bench.AuditReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
		auditRep.Flags = flagSet()
	}
	var overloadRep *bench.Report
	if *exp == "overload" && (*jsonOut || *baseline != "") {
		var err error
		overloadRep, err = bench.OverloadReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
		overloadRep.Flags = flagSet()
	}
	var ringsRep *bench.Report
	if *exp == "rings" && (*jsonOut || *baseline != "") {
		var err error
		ringsRep, err = bench.RingsReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
		ringsRep.Flags = flagSet()
	}
	var smpRep *bench.Report
	if *exp == "smp" && (*jsonOut || *baseline != "") {
		var err error
		smpRep, err = bench.SMPReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
		smpRep.Flags = flagSet()
	}
	if *jsonOut {
		var err error
		switch *exp {
		case "audit":
			err = writeAuditReport(*jsonPath, auditRep)
		case "overload":
			err = writeNamedReport(*jsonPath, overloadRep,
				fmt.Sprintf("overload quick-class p99 %.0f ns", overloadRep.Experiments["overload"].Headline))
		case "rings":
			err = writeNamedReport(*jsonPath, ringsRep,
				fmt.Sprintf("rings 64B e2e p99 %.0f ns", ringsRep.Experiments["rings"].Headline))
		case "smp":
			err = writeNamedReport(*jsonPath, smpRep,
				fmt.Sprintf("smp burst depot 8w speedup %.2fx", smpRep.Experiments["smp_scaling"].Headline))
		default:
			err = writeReport(*jsonPath, flagSet())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
	}
	if *auditTrace != "" {
		if err := writeAuditTrace(*auditTrace, auditRes); err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		gate, rep, compare := "audit", auditRep, bench.CompareAudit
		if *exp == "overload" {
			gate, rep, compare = "overload", overloadRep, bench.CompareOverload
		}
		if *exp == "rings" {
			gate, rep, compare = "rings", ringsRep, bench.CompareRings
		}
		if *exp == "smp" {
			gate, rep, compare = "smp_scaling", smpRep, bench.CompareSMP
		}
		if err := gateReport(*baseline, rep, compare); err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s gate: no p99 regression vs %s\n", gate, *baseline)
	}
	if o != nil {
		if err := exportObserved(o, *tracePath, *metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "fbufbench:", err)
			os.Exit(1)
		}
	}
}

// flagSet records the explicitly set flags for the report stamp.
func flagSet() []string {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		set = append(set, f.Name+"="+f.Value.String())
	})
	return set
}

// writeAuditReport writes the audit-only report.
func writeAuditReport(path string, rep *bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: audit p99 %.0f ns\n", path, rep.Experiments["audit_latency_attribution"].Headline)
	return nil
}

// writeAuditTrace writes the audit run's flight-recorder Perfetto dump.
func writeAuditTrace(path string, res *bench.AuditResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gateReport compares the current report against the baseline file with
// the given experiment comparator.
func gateReport(path string, cur *bench.Report, compare func(base, cur *bench.Report) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := bench.LoadReport(f)
	if err != nil {
		return err
	}
	return compare(base, cur)
}

// writeNamedReport writes a single-experiment report with a summary line.
func writeNamedReport(path string, rep *bench.Report, summary string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", path, summary)
	return nil
}

// writeReport builds the machine-readable report and writes it.
func writeReport(path string, flags []string) error {
	rep, err := bench.BuildReport()
	if err != nil {
		return err
	}
	rep.Flags = flags
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", path, rep.Summary())
	return nil
}

// exportObserved writes the observer's trace and metrics files.
func exportObserved(o *obs.Observer, tracePath, metricsPath string) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := o.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		bench.PublishObserved()
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := o.Metrics.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

type writerTo interface {
	WriteTo(io.Writer) (int64, error)
}

func run(w io.Writer, exp string, seed int64) error {
	show := func(r writerTo, err error) error {
		if err != nil {
			return err
		}
		if _, err := r.WriteTo(w); err != nil {
			return err
		}
		_, err = fmt.Fprintln(w)
		return err
	}
	all := exp == "all"
	ran := false
	if all || exp == "table1" {
		ran = true
		if err := show(bench.Table1()); err != nil {
			return err
		}
	}
	if all || exp == "fig3" {
		ran = true
		if err := show(bench.Figure3()); err != nil {
			return err
		}
	}
	if all || exp == "fig4" {
		ran = true
		if err := show(bench.Figure4()); err != nil {
			return err
		}
	}
	if all || exp == "fig5" {
		ran = true
		if err := show(bench.Figure5()); err != nil {
			return err
		}
	}
	if all || exp == "fig6" {
		ran = true
		if err := show(bench.Figure6()); err != nil {
			return err
		}
	}
	if all || exp == "cpuload" {
		ran = true
		if err := show(bench.CPULoad()); err != nil {
			return err
		}
	}
	if all || exp == "smp" {
		ran = true
		s := seed
		if s == 0 {
			s = bench.SMPSeed
		}
		tables, err := bench.SMPScaling(s)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := show(t, nil); err != nil {
				return err
			}
		}
	}
	if all || exp == "audit" {
		ran = true
		if err := show(bench.Audit()); err != nil {
			return err
		}
	}
	if exp == "chaos" { // not part of "all": paper artifacts stay fault-free
		ran = true
		if err := show(bench.Chaos()); err != nil {
			return err
		}
	}
	if exp == "overload" { // not part of "all", like chaos: a robustness scenario
		ran = true
		var seeds []int64
		if seed != 0 {
			seeds = []int64{seed}
		}
		if err := show(bench.Overload(seeds...)); err != nil {
			return err
		}
	}
	if exp == "rings" { // not part of "all": the paper artifacts stay on the legacy plane
		ran = true
		if err := show(bench.Rings(seed)); err != nil {
			return err
		}
	}
	if all || exp == "ablations" {
		ran = true
		tables, err := bench.Ablations()
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := show(t, nil); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(validExperiments, ", "))
	}
	return nil
}

// runWallClock runs the opt-in real-goroutine driver (-parallel N).
func runWallClock(w io.Writer, workers int) error {
	t, err := bench.ParallelWallClock(workers, 20000)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}
