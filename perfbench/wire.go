//detlint:parallel
package main

import (
	"fmt"
	"time"

	"fbufs/internal/core"
	"fbufs/internal/netsim"
	"fbufs/internal/obs"
	"fbufs/internal/obs/profile"
	"fbufs/internal/obs/span"
	"fbufs/internal/protocols"
	"fbufs/internal/rings"
	"fbufs/internal/simtime"
)

// The wire workloads run netsim's two-host end-to-end harness: a sliding
// window of test-protocol messages over UDP/IP and the Osiris adapter,
// with the payload of every message verified at the sink.
type wireSpec struct {
	netsim.Config
	minBytes, maxBytes int
	logSizes           bool
	simMsgs            int // the simulated sample
	warm               int
}

// Both wire workloads keep a window of 4 messages, not the 8 of the
// paper's runs. At 8 the latency distribution splits into two modes with
// the median between them (wire_bulk), or the rings' adaptive spin budget
// settles into one of several long-lived regimes depending on the inputs
// (wire_small_rings), so the latency percentiles move by 2-9% from seed to
// seed, more than a bound that can see a 15% cost regression allows. At 4
// they move by less than 0.2%, and the regimes stay the same: wire_bulk
// still runs at 98% of its 8-message goodput, against the bus ceiling.
const wireWindow = 4

// wire_bulk is the Fig. 5 headline regime: user-user placement, cached
// volatile fbufs, 16 KB IP PDUs and messages of about 256 KB. It is
// bus-bound in simulation; in Go its cost is payload verification,
// aggregate work and the allocations behind osiris/netsim's PDU copies.
var wireBulkSpec = wireSpec{
	Config: netsim.Config{
		Placement: netsim.UserUser,
		Opts:      core.CachedVolatile(),
		PDUBytes:  16*1024 + protocols.UDPHeaderBytes,
		Window:    wireWindow,
		Verify:    true,
	},
	minBytes: 224 << 10, maxBytes: 256 << 10,
	simMsgs: 6000, warm: 32,
}

// wire_small_rings sends small messages, 512 B to 5 KB log-uniform
// (median 1.6 KB), through the three-domain user-netserver-user placement
// over the shared-memory ring data plane: the fixed per-message cost
// (rings, doorbells, notices, per-message protocol and aggregate work)
// decides it. The range crosses one page boundary, so the simulated CPU
// cost per message is not the same for every seed's mix.
var wireSmallRingsSpec = wireSpec{
	Config: netsim.Config{
		Placement: netsim.UserNetserverUser,
		Opts:      core.CachedVolatile(),
		PDUBytes:  16*1024 + protocols.UDPHeaderBytes,
		Window:    wireWindow,
		Verify:    true,
		UseRings:  true,
	},
	minBytes: 512, maxBytes: 5120, logSizes: true,
	simMsgs: 6000, warm: 256,
}

func wireBulk(cfg config) (*result, error)       { return runWire(cfg, wireBulkSpec) }
func wireSmallRings(cfg config) (*result, error) { return runWire(cfg, wireSmallRingsSpec) }

// wireRun drives one E2E harness, stamping each message's simulated send
// and delivery instants through the harness's delivery hooks.
type wireRun struct {
	e     *netsim.E2E
	spec  wireSpec
	sizes []int
	sent  int // messages stamped with their send instant

	// sendAt holds the simulated send instant of the last len(sendAt)
	// messages sent, indexed by message number; delivery is in order and at
	// most a window of messages is in flight.
	sendAt  [64]simtime.Time
	stamp   simtime.Time // send instant for messages sent since the last hook
	recv    int          // messages delivered
	timed0  int          // first message of the timed phase
	gaps    *gapRecorder
	res     *result
	cpu0    simtime.Duration
	first   simtime.Time
	more    func() bool // whether the timed phase wants another message
	stopped bool
}

func newWireRun(cfg config, spec wireSpec, sizes []int, obsv *obs.Observer) (*wireRun, error) {
	c := spec.Config
	c.MsgBytes = sizes[0]
	c.Count = spec.warm
	c.Obs = obsv
	e, err := netsim.NewE2E(c)
	if err != nil {
		return nil, err
	}
	w := &wireRun{e: e, spec: spec, sizes: sizes}
	ack, deliver := e.A.Ack.OnDeliver, e.B.Test.OnDeliver
	e.A.Ack.OnDeliver = func(n int) {
		w.fill()
		// Each acknowledgement opens the window by one message, sent from
		// inside this hook with the size set here.
		if w.more != nil && !w.stopped {
			if w.more() {
				e.Cfg.Count = int(e.A.Test.SentMsgs) + 1
			} else {
				w.stopped = true
			}
		}
		e.Cfg.MsgBytes = w.sizes[w.sent%len(w.sizes)]
		w.stamp = e.Sched.Now()
		ack(n)
		w.fill()
	}
	e.B.Test.OnDeliver = func(n int) {
		w.fill()
		w.delivered(n)
		deliver(n)
	}
	return w, nil
}

// fill stamps messages sent since the last hook with their send instant.
func (w *wireRun) fill() {
	for ; w.sent < int(w.e.A.Test.SentMsgs); w.sent++ {
		w.sendAt[w.sent%len(w.sendAt)] = w.stamp
	}
}

func (w *wireRun) delivered(n int) {
	i := w.recv
	w.recv++
	if w.res == nil || i < w.timed0 {
		return
	}
	w.gaps.done(time.Now())
	k := i - w.timed0
	if k >= w.spec.simMsgs {
		return
	}
	now := w.e.Sched.Now()
	r := w.res
	r.simLat = append(r.simLat, now-w.sendAt[i%len(w.sendAt)])
	if k == 0 {
		w.first = now
	} else {
		r.simBytes += int64(n)
	}
	r.simSpan = now - w.first
	if k == w.spec.simMsgs-1 {
		r.simCPU = w.cpuBusy() - w.cpu0
	}
}

func (w *wireRun) cpuBusy() simtime.Duration {
	return w.e.A.CPU.BusyTime() + w.e.B.CPU.BusyTime()
}

// runBatch sends until the harness's Count and runs the simulation to
// quiescence.
func (w *wireRun) runBatch() error {
	w.stamp = w.e.Sched.Now()
	w.e.Cfg.MsgBytes = w.sizes[w.sent%len(w.sizes)]
	_, err := w.e.Run()
	return err
}

// teardown shuts both hosts down and checks each for breaches and leaks.
func (w *wireRun) teardown() (int, error) {
	leaked := 0
	for _, h := range []*netsim.Host{w.e.A, w.e.B} {
		if err := h.Shutdown(); err != nil {
			return leaked, fmt.Errorf("host %s: shutdown: %w", h.Name, err)
		}
		n, err := settle(h.Sys, h.Reg, h.Mgr, 0)
		leaked += n
		if err != nil {
			return leaked, fmt.Errorf("host %s: %w", h.Name, err)
		}
	}
	return leaked, nil
}

func runWire(cfg config, spec wireSpec) (*result, error) {
	rng := &splitmix{s: cfg.seed}
	sizes := sizeMix(rng, rng, spec.simMsgs, spec.minBytes, spec.maxBytes, spec.logSizes)
	res := &result{simGoodput: true, layers: map[string]float64{}}
	tr := cfg.trace

	// On a traced run the simulated-time stage split comes from the
	// program's own span observer, folded by its critical-path profiler.
	var obsv *obs.Observer
	if tr != nil {
		obsv = obs.New(1 << 12)
		obsv.Spans = span.NewRecorder(64)
	}

	w, err := setUp(res, func() (*wireRun, error) {
		w, err := newWireRun(cfg, spec, sizes, obsv)
		if err != nil {
			return nil, err
		}
		if err := w.runBatch(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return w, nil
	}, (*wireRun).teardown)
	if err != nil {
		return nil, err
	}

	e := w.e
	a, b := e.A, e.B
	if tr != nil {
		tr.sim = e.Sched.Now
	}
	w.gaps = newGapRecorder(1 << 20)
	w.res = res
	w.timed0 = w.recv
	w.cpu0 = w.cpuBusy()
	res.simLat = make([]simtime.Duration, 0, spec.simMsgs)
	sent0 := int(a.Test.SentMsgs)
	vf0 := b.Test.VerifyFailures
	st0 := [2]core.Stats{a.Mgr.Snapshot(), b.Mgr.Snapshot()}
	calls0 := a.Env.Router.Calls + b.Env.Router.Calls
	rs0 := ringStats(w)
	tx0, rx0 := a.Driver.TxPDUs, b.Driver.RxPDUs
	unc0 := a.Driver.RxUncachedAllocs + b.Driver.RxUncachedAllocs
	crc0 := a.Driver.CRCDrops + b.Driver.CRCDrops
	busA0, busB0, cpuA0, cpuB0 := a.Bus.BusyTime(), b.Bus.BusyTime(), a.CPU.BusyTime(), b.CPU.BusyTime()
	sim0 := e.Sched.Now()
	prof := profile.NewProfiler() // folds the timed phase's traces only
	profile.Attach(obsv, prof, nil)

	ph := beginTimed(cfg, w.gaps.bytes()+uint64(cap(res.simLat))*8)
	w.gaps.start(ph.start)
	deadline := ph.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// The simulated sample must not depend on the wall clock: the harness
	// keeps sending until the sample plus a full window has gone out, so
	// every sampled message saw the same traffic behind it, and only then
	// does the deadline end the phase.
	need := sent0 + max(spec.simMsgs, minSamples) + spec.Window
	w.more = func() bool {
		return int(a.Test.SentMsgs) < need || time.Now().Before(deadline)
	}
	e.Cfg.Count = sent0 + spec.Window
	err = tr.call("netsim.run", w.runBatch)
	endTimed(cfg, ph, res)
	w.more = nil
	if err != nil {
		return nil, fmt.Errorf("timed run: %w", err)
	}
	res.msgs = w.recv - w.timed0
	res.attempted = int(a.Test.SentMsgs) - sent0
	res.failed = min(res.attempted, res.attempted-res.msgs+int(b.Test.VerifyFailures-vf0))
	res.wall = wallOf(w.gaps)

	if tr != nil {
		msgs := float64(res.msgs)
		simEl := float64(e.Sched.Now() - sim0)
		coreLayers(res.layers, msgs, [2]core.Stats{st0[0], a.Mgr.Snapshot()}, [2]core.Stats{st0[1], b.Mgr.Snapshot()})
		res.layers["ipc.calls_per_msg"] = float64(a.Env.Router.Calls+b.Env.Router.Calls-calls0) / msgs
		rs := ringStats(w)
		res.layers["rings.doorbells_per_msg"] = float64(rs.Doorbells-rs0.Doorbells) / msgs
		res.layers["rings.spin_hit_ratio"] = ratio(float64(rs.SpinHits-rs0.SpinHits), float64(rs.SpinHits-rs0.SpinHits+rs.Doorbells-rs0.Doorbells))
		res.layers["rings.submit_fallbacks_per_msg"] = float64(rs.SubmitFallbacks-rs0.SubmitFallbacks) / msgs
		res.layers["rings.entries_per_drain"] = ratio(float64(rs.Drained-rs0.Drained), float64(rs.Drains-rs0.Drains))
		res.layers["rings.notices_per_completion"] = ratio(float64(rs.NoticesCoalesced-rs0.NoticesCoalesced), float64(rs.Completions-rs0.Completions))
		res.layers["osiris.tx_pdus_per_msg"] = float64(a.Driver.TxPDUs-tx0) / msgs
		res.layers["osiris.rx_pdus_per_msg"] = float64(b.Driver.RxPDUs-rx0) / msgs
		res.layers["osiris.rx_uncached_allocs"] = float64(a.Driver.RxUncachedAllocs + b.Driver.RxUncachedAllocs - unc0)
		res.layers["osiris.crc_drops"] = float64(a.Driver.CRCDrops + b.Driver.CRCDrops - crc0)
		res.layers["netsim.tx_cpu_util"] = float64(a.CPU.BusyTime()-cpuA0) / simEl
		res.layers["netsim.rx_cpu_util"] = float64(b.CPU.BusyTime()-cpuB0) / simEl
		res.layers["netsim.bus_util"] = float64(max(a.Bus.BusyTime()-busA0, b.Bus.BusyTime()-busB0)) / simEl
		res.layers["netsim.run_wall_s"] = ph.elapsed.Seconds()
		if p := prof.Report().Path("data"); p != nil {
			for i, s := range p.Stages {
				if i == 6 {
					break
				}
				res.notes = append(res.notes, fmt.Sprintf("sim stage %-10s %-8s %6.2f%% of data-path time (%d traces)", s.Layer, s.Stage, s.Pct, p.Traces))
			}
		}
	}
	leaked, err := w.teardown()
	res.layers["mem.frames_leaked"] = float64(leaked)
	if err != nil && res.breach == nil {
		res.breach = err
	}
	return res, nil
}

func ringStats(w *wireRun) rings.Stats {
	var s rings.Stats
	s.Add(w.e.A.Env.Router.RingStats())
	s.Add(w.e.B.Env.Router.RingStats())
	return s
}
