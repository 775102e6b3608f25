//detlint:parallel
package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// hop_depot is the paper's common case run by the many-core allocator: one
// host, two domains, one cached/volatile path fronted by a magazine depot,
// and two workers, each with its own magazine and epoch pin. A hop is
// Alloc, Write of a seeded payload, Transfer, Read and compare, and free
// in both domains. It costs no simulated time at all, so only the Go
// implementation's cost shows.
const (
	hopWorkers    = 2
	hopPages      = 4
	hopMinBytes   = 64
	hopMaxBytes   = hopPages * machine.PageSize
	hopMix        = 4096 // sizes per worker
	hopWarm       = 4096 // hops per worker during set-up
	hopBatch      = 64   // hops per epoch pin
	hopSimSample  = 4096
	hopGapsKept   = 1 << 20 // per worker
	hopPayloadPad = 256
)

type hopHost struct {
	clk      *simtime.Clock
	sys      *vm.System
	reg      *domain.Registry
	mgr      *core.Manager
	path     *core.DataPath
	src, dst *domain.Domain
	frames0  int
	ws       []*hopWorker
}

func newHopHost() (*hopHost, error) {
	h := &hopHost{clk: &simtime.Clock{}}
	h.sys = vm.NewSystem(machine.DecStation5000(), 1<<12, vm.ClockSink{Clock: h.clk})
	h.reg = domain.NewRegistry(h.sys)
	h.mgr = core.NewManager(h.sys, h.reg)
	h.mgr.EmptyLeafInit = aggregate.EmptyLeafImage
	h.src, h.dst = h.reg.New("producer"), h.reg.New("consumer")
	h.mgr.AttachDomain(h.src)
	h.mgr.AttachDomain(h.dst)
	h.frames0 = h.sys.Mem.Allocated()
	p, err := h.mgr.NewPath("hop", core.CachedVolatile(), hopPages, h.src, h.dst)
	if err != nil {
		return nil, err
	}
	p.EnableDepot(core.DefaultMagazineCap/2, hopWorkers)
	h.path = p
	return h, nil
}

type hopWorker struct {
	h       *hopHost
	mag     *core.Magazine
	ep      *core.EpochWorker
	sizes   []int
	payload []byte
	buf     []byte
	gaps    *gapRecorder
	tr      *tracer
	next    int
	hops    int
	failed  int
	simLat  []simtime.Duration // first hops of worker 0 only
}

func newHopWorker(h *hopHost, rng *splitmix) *hopWorker {
	w := &hopWorker{
		h:       h,
		mag:     h.path.NewMagazine(0),
		ep:      h.mgr.RegisterEpochWorker(),
		sizes:   sizeMix(rng, rng, hopMix, hopMinBytes, hopMaxBytes, true),
		payload: make([]byte, hopMaxBytes+hopPayloadPad),
		buf:     make([]byte, hopMaxBytes),
	}
	for i := range w.payload {
		w.payload[i] = byte(rng.next())
	}
	return w
}

// hop moves one payload from the producer to the consumer and back to the
// free list. A payload that reads back wrong counts as a failed hop; an
// error from the facility ends the worker.
func (w *hopWorker) hop() error {
	h, tr := w.h, w.tr
	n := w.sizes[w.next%len(w.sizes)]
	off := w.next % hopPayloadPad
	w.next++
	data := w.payload[off : off+n]
	tr.begin("core.alloc")
	f, err := w.mag.Alloc()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("vm.write")
	err = f.Write(h.src, 0, data)
	tr.end()
	if err == nil {
		tr.begin("core.transfer")
		err = h.mgr.Transfer(f, h.src, h.dst)
		tr.end()
	}
	if err == nil {
		tr.begin("vm.read")
		err = f.Read(h.dst, 0, w.buf[:n])
		tr.end()
		if err == nil && !bytes.Equal(w.buf[:n], data) {
			w.failed++
		}
		tr.begin("core.free")
		if err == nil {
			err = h.mgr.Free(f, h.dst)
		}
		if err == nil {
			err = w.mag.Free(f, h.src)
		}
		tr.end()
	}
	w.hops++
	return err
}

// loop hops in epoch-pinned batches until done reports true.
func (w *hopWorker) loop(done func(w *hopWorker) bool) error {
	for !done(w) {
		w.ep.Enter()
		for i := 0; i < hopBatch; i++ {
			t0 := w.h.clk.Now()
			if err := w.hop(); err != nil {
				w.ep.Exit()
				return err
			}
			if w.gaps != nil {
				w.gaps.done(time.Now())
			}
			if w.simLat != nil && len(w.simLat) < cap(w.simLat) {
				w.simLat = append(w.simLat, w.h.clk.Now()-t0)
			}
		}
		w.ep.Exit()
	}
	return nil
}

// runWorkers runs every worker's loop on its own goroutine and joins them.
func runWorkers(ws []*hopWorker, done func(w *hopWorker) bool) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *hopWorker) {
			defer wg.Done()
			errs[i] = w.loop(done)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *hopHost) teardown() (int, error) {
	for _, w := range h.ws {
		w.mag.Drain()
	}
	return settle(h.sys, h.reg, h.mgr, h.frames0)
}

func hopDepot(cfg config) (*result, error) {
	res := &result{layers: map[string]float64{}}
	h, err := setUp(res, func() (*hopHost, error) {
		h, err := newHopHost()
		if err != nil {
			return nil, err
		}
		rng := &splitmix{s: cfg.seed}
		for i := 0; i < hopWorkers; i++ {
			h.ws = append(h.ws, newHopWorker(h, rng))
		}
		if err := runWorkers(h.ws, func(w *hopWorker) bool { return w.hops >= hopWarm }); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return h, nil
	}, (*hopHost).teardown)
	if err != nil {
		return nil, err
	}
	ws := h.ws

	tr := cfg.trace
	if tr != nil {
		h.mgr.WallNow = func() int64 { return time.Now().UnixNano() }
	}
	hops0 := make([]int, len(ws))
	for i, w := range ws {
		hops0[i] = w.hops
		w.gaps = newGapRecorder(hopGapsKept)
		if tr != nil {
			w.tr = newTracer(tr.base, h.clk.Now)
		}
	}
	ws[0].simLat = make([]simtime.Duration, 0, hopSimSample)
	own := uint64(hopSimSample) * 8
	for _, w := range ws {
		own += w.gaps.bytes()
	}
	wait0 := lockWait(h.mgr)
	st0 := h.mgr.Snapshot()
	sim0 := h.clk.Now()

	ph := beginTimed(cfg, own)
	for _, w := range ws {
		w.gaps.start(ph.start)
	}
	deadline := ph.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	err = runWorkers(ws, func(w *hopWorker) bool {
		return len(w.gaps.gaps) >= minSamples && len(w.simLat) == cap(w.simLat) && !time.Now().Before(deadline)
	})
	endTimed(cfg, ph, res)
	if err != nil {
		return nil, fmt.Errorf("timed run: %w", err)
	}
	var gaps []*gapRecorder
	for i, w := range ws {
		res.msgs += w.hops - hops0[i]
		res.failed += w.failed
		gaps = append(gaps, w.gaps)
	}
	res.attempted = res.msgs
	res.wall = wallOf(gaps...)
	res.simLat = ws[0].simLat
	// Per-hop simulated cost over every worker's hops, scaled to the sample
	// the end-to-end metrics divide by.
	res.simCPU = (h.clk.Now() - sim0) * simtime.Duration(len(res.simLat)) / simtime.Duration(max(res.msgs, 1))

	if tr != nil {
		msgs := float64(res.msgs)
		coreLayers(res.layers, msgs, [2]core.Stats{st0, h.mgr.Snapshot()})
		res.layers["core.lock_wait_ns"] = float64(lockWait(h.mgr)-wait0) / msgs
		for _, w := range ws {
			tr.merge(w.tr)
			res.tracers = append(res.tracers, w.tr)
		}
		for _, name := range []string{"core.alloc", "core.transfer", "core.free", "vm.write", "vm.read"} {
			if a := tr.agg[name]; a != nil && a.n > 0 {
				res.layers[name+"_wall_ns"] = float64(a.selfWall) / float64(a.n)
			}
		}
	}
	leaked, err := h.teardown()
	res.layers["mem.frames_leaked"] = float64(leaked)
	if err != nil && res.breach == nil {
		res.breach = err
	}
	return res, nil
}

// lockWait sums the contended-lock wait the manager measured on every path.
func lockWait(m *core.Manager) int64 {
	var ns int64
	for _, pc := range m.ContentionByPath() {
		ns += pc.WaitNs
	}
	return ns
}
