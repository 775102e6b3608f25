//detlint:parallel
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fbufs/internal/aggregate"
	"fbufs/internal/simtime"
	"fbufs/internal/xkernel"
)

// The traced run records spans from the benchmark's own code only: around
// every public call a workload makes into the program, and around each
// protocol layer through a benchmark-side xkernel layer wrapper. The
// program itself carries no benchmark spans.

// spanRec is one finished span as written at exit.
type spanRec struct {
	Name      string `json:"name"`
	Parent    int32  `json:"parent"` // index into the same tracer's spans, -1 for a root
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
}

// spanAgg folds every span of one name: count and self time on both
// clocks. Self time is the span's duration minus its children's.
type spanAgg struct {
	n        int64
	selfWall int64
	selfSim  simtime.Duration
}

type openSpan struct {
	rec       int32 // index in kept, or -1 when not kept
	name      string
	wall0     int64
	sim0      simtime.Time
	childWall int64
	childSim  simtime.Duration
}

// maxKeptSpans bounds the spans a tracer holds for the exit dump; every
// span, kept or not, is folded into the per-name aggregates.
const maxKeptSpans = 1 << 18

// tracer is a per-goroutine span recorder. A nil *tracer records nothing,
// so untraced runs pay one pointer check per span site.
type tracer struct {
	base  time.Time
	sim   func() simtime.Time
	open  []openSpan
	agg   map[string]*spanAgg
	kept  []spanRec
	spill int64
}

func newTracer(base time.Time, sim func() simtime.Time) *tracer {
	return &tracer{base: base, sim: sim, agg: map[string]*spanAgg{}}
}

func (t *tracer) simNow() simtime.Time {
	if t.sim == nil {
		return 0
	}
	return t.sim()
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	s := openSpan{rec: -1, name: name, wall0: int64(time.Since(t.base)), sim0: t.simNow()}
	if len(t.kept) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].rec
		}
		s.rec = int32(len(t.kept))
		t.kept = append(t.kept, spanRec{Name: name, Parent: parent, WallStart: s.wall0, SimStart: int64(s.sim0)})
	} else {
		t.spill++
	}
	t.open = append(t.open, s)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	wall := int64(time.Since(t.base)) - s.wall0
	sim := t.simNow() - s.sim0
	if s.rec >= 0 {
		t.kept[s.rec].WallEnd = s.wall0 + wall
		t.kept[s.rec].SimEnd = int64(s.sim0 + sim)
	}
	a := t.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.name] = a
	}
	a.n++
	a.selfWall += wall - s.childWall
	a.selfSim += sim - s.childSim
	if n > 0 {
		t.open[n-1].childWall += wall
		t.open[n-1].childSim += sim
	}
}

// call runs fn inside a span.
func (t *tracer) call(name string, fn func() error) error {
	t.begin(name)
	err := fn()
	t.end()
	return err
}

// merge folds other's aggregates into t's (worker tracers into the run's).
func (t *tracer) merge(other *tracer) {
	for name, o := range other.agg {
		a := t.agg[name]
		if a == nil {
			a = &spanAgg{}
			t.agg[name] = a
		}
		a.n += o.n
		a.selfWall += o.selfWall
		a.selfSim += o.selfSim
	}
	t.spill += other.spill
}

// writeSpans dumps the kept spans of every tracer as one JSON document.
func writeSpans(path string, tracers []*tracer) error {
	if path == "" {
		return nil
	}
	type doc struct {
		Spans   [][]spanRec `json:"spans"` // one list per tracer (goroutine)
		Spilled int64       `json:"spilled"`
	}
	var d doc
	for _, t := range tracers {
		d.Spans = append(d.Spans, t.kept)
		d.Spilled += t.spill
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLayer wraps one xkernel layer so every Push and Deliver through it
// is a span named after the layer. It is installed with StackConfig.Wrap.
type tracedLayer struct {
	xkernel.Layer
	t    *tracer
	name string
}

func (l *tracedLayer) Push(m *aggregate.Msg) error {
	return l.t.call(l.name, func() error { return l.Layer.Push(m) })
}

func (l *tracedLayer) Deliver(m *aggregate.Msg) error {
	return l.t.call(l.name, func() error { return l.Layer.Deliver(m) })
}

// cpuProfile collects a CPU profile of the traced phase and folds its
// samples into per-layer shares of the wall-clock CPU time.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func (p *cpuProfile) start() {
	p.on = pprof.StartCPUProfile(&p.buf) == nil
}

// stop ends profiling and returns each bucket's share of the samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	if !p.on {
		return nil, errors.New("perfbench: CPU profiler unavailable")
	}
	pprof.StopCPUProfile()
	stacks, err := profileStacks(&p.buf)
	if err != nil {
		return nil, err
	}
	var total float64
	shares := map[string]float64{}
	for _, st := range stacks {
		shares[profileBucket(st.frames)] += float64(st.count)
		total += float64(st.count)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// profileBuckets are the groups the wall-clock share is reported for: the
// program's packages, the Go runtime (garbage collection, allocation and
// scheduling), the benchmark itself, and everything else.
var profileBuckets = []string{
	"vm", "mem", "machine", "domain", "core", "aggregate", "ipc", "rings",
	"xkernel", "protocols", "osiris", "netsim", "simtime", "obs",
	"runtime", "bench", "other",
}

// profileBucket charges one sample to the leaf's bucket. A leaf in the Go
// runtime is charged to "runtime", except memory moves and compares,
// which are the caller's work; a leaf in any other standard-library
// package (locks, maps, sorting) is charged to the nearest program or
// benchmark frame above it.
func profileBucket(frames []string) string {
	for i, fn := range frames {
		pkg := funcPackage(fn)
		switch {
		case pkg == "runtime" && i == 0 && !strings.HasPrefix(fn, "runtime.mem"):
			return "runtime"
		case pkg == "main" || pkg == "fbufs/perfbench":
			return "bench"
		case strings.HasPrefix(pkg, "fbufs/internal/"):
			name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "fbufs/internal/"), "/")
			for _, b := range profileBuckets {
				if b == name {
					return b
				}
			}
			return "other"
		}
	}
	return "other"
}

// funcPackage returns the import path of a function's full name, as in
// "fbufs/internal/core" for "fbufs/internal/core.(*Magazine).Alloc".
func funcPackage(fn string) string {
	i := strings.LastIndex(fn, "/") + 1
	if j := strings.Index(fn[i:], "."); j >= 0 {
		return fn[:i+j]
	}
	return fn
}

// profileStack is one sample's call stack, leaf first, inlined frames
// included.
type profileStack struct {
	frames []string
	count  int64
}

// profileStacks decodes a gzipped pprof profile (profile.proto) far enough
// to list each sample's stack of function names and its sample count.
func profileStacks(r io.Reader) ([]profileStack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string table index
		strs    []string
	)
	// repeated scalars may arrive packed (bytes) or one per field (varint).
	scalars := func(v uint64, b []byte) []uint64 {
		if b == nil {
			return []uint64{v}
		}
		return packed(b)
	}
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			var values []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, scalars(v, b)...)
				case 2:
					values = append(values, scalars(v, b)...)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		st := profileStack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("perfbench: profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("perfbench: profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("perfbench: profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("perfbench: profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("perfbench: profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("perfbench: profile: wire type %d", wire)
		}
	}
	return nil
}

func packed(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// sortedKeys returns m's keys in order (deterministic printing).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
