//detlint:parallel
package main

import (
	"fmt"
	"time"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/protocols"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
	"fbufs/internal/xkernel"
)

// local_uncached: one host, three domains, the paper's UDP/IP loopback
// stack with plain (uncached, non-volatile) fbufs — the Fig. 6 / Table 1
// baseline. Every message allocates fresh fbufs, builds and tears down
// mappings and clears pages, so vm, mem and core's mapping code do most of
// the work; no osiris or netsim is involved.
const (
	localSimMsgs  = 20000 // the simulated sample: one pass over the size mix
	localWarm     = 200
	localMinBytes = 1 << 10
	localMaxBytes = 64 << 10
)

type localHost struct {
	clk     *simtime.Clock
	sys     *vm.System
	reg     *domain.Registry
	mgr     *core.Manager
	stack   *protocols.LoopbackStack
	frames0 int // frames in use before any path was built
	sent    uint64
	// framesHeld sums, over traced messages, the frames in use above the
	// idle level when the message reaches the sink.
	framesHeld int
}

func newLocalHost(cfg config) (*localHost, error) {
	cost := machine.DecStation5000()
	if cfg.editCost != nil {
		cfg.editCost(cost)
	}
	h := &localHost{clk: &simtime.Clock{}}
	h.sys = vm.NewSystem(cost, 1<<15, vm.ClockSink{Clock: h.clk})
	h.reg = domain.NewRegistry(h.sys)
	h.mgr = core.NewManager(h.sys, h.reg)
	h.mgr.EmptyLeafInit = aggregate.EmptyLeafImage
	env := xkernel.NewEnv(h.sys, h.mgr, h.reg)
	src, net, sink := h.reg.New("app"), h.reg.New("netserver"), h.reg.New("receiver")
	for _, d := range []*domain.Domain{src, net, sink} {
		h.mgr.AttachDomain(d)
	}
	h.frames0 = h.sys.Mem.Allocated()
	tr := cfg.trace
	wrap := func(l xkernel.Layer) xkernel.Layer {
		if cfg.wrap != nil {
			l = cfg.wrap(l)
		}
		if tr != nil {
			if l.Name() == "test" {
				l = &frameProbe{Layer: l, h: h}
			}
			l = &tracedLayer{Layer: l, t: tr, name: "protocols." + l.Name()}
		}
		return l
	}
	s, err := protocols.NewLoopbackStack(env, protocols.StackConfig{
		Src: src, Net: net, Sink: sink,
		Opts:          core.UncachedNonVolatile(),
		PDUBytes:      4096 + protocols.UDPHeaderBytes,
		DataFbufPages: 16,
		Wrap:          wrap,
	})
	if err != nil {
		return nil, err
	}
	s.Sink.Verify = true
	h.stack = s
	return h, nil
}

// frameProbe samples the frames in use as a message reaches the sink,
// before the sink frees it: with uncached fbufs every one of them was
// allocated for this message.
type frameProbe struct {
	xkernel.Layer
	h *localHost
}

func (p *frameProbe) Deliver(m *aggregate.Msg) error {
	p.h.framesHeld += p.h.sys.Mem.Allocated() - p.h.frames0 - p.h.mgr.EmptyLeafFrames()
	return p.Layer.Deliver(m)
}

// send pushes one verified message through the stack; it is delivered to
// the sink, checked and freed within the call.
func (h *localHost) send(n int) error {
	seq := h.sent
	h.sent++
	return h.stack.SendVerified(seq, n)
}

// teardown closes the stack's arenas, drains notices and checks the
// facility and frame pool for breaches and leaks.
func (h *localHost) teardown() (leaked int, err error) {
	for _, c := range []*aggregate.Ctx{h.stack.SrcCtx, h.stack.NetCtx} {
		if err := c.Close(); err != nil {
			return 0, err
		}
	}
	return settle(h.sys, h.reg, h.mgr, h.frames0)
}

// settle delivers every pending deallocation notice, then checks the
// manager's and the frame pool's invariants and counts leaked frames: at
// quiescence only free-listed fbufs and the empty leaf may hold frames.
func settle(sys *vm.System, reg *domain.Registry, mgr *core.Manager, frames0 int) (int, error) {
	doms := reg.All()
	for _, a := range doms {
		for _, b := range doms {
			if a != b && !a.Dead() && !b.Dead() {
				mgr.DeliverNotices(a, b)
			}
		}
	}
	mgr.AdvanceEpoch()
	if err := mgr.CheckConverged(); err != nil {
		return 0, err
	}
	if err := sys.Mem.CheckInvariants(); err != nil {
		return 0, err
	}
	mgr.ReclaimIdle(1 << 30)
	mgr.AdvanceEpoch()
	leaked := sys.Mem.Allocated() - frames0 - mgr.EmptyLeafFrames()
	if leaked != 0 {
		return leaked, fmt.Errorf("%d frames leaked", leaked)
	}
	return 0, nil
}

func localUncached(cfg config) (*result, error) {
	rng := &splitmix{s: cfg.seed}
	sizes := sizeMix(rng, rng, localSimMsgs, localMinBytes, localMaxBytes, true)
	res := &result{simGoodput: true, layers: map[string]float64{}}

	h, err := setUp(res, func() (*localHost, error) {
		h, err := newLocalHost(cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < localWarm; i++ {
			if err := h.send(sizes[i%len(sizes)]); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return h, nil
	}, (*localHost).teardown)
	if err != nil {
		return nil, err
	}

	tr := cfg.trace
	if tr != nil {
		tr.sim = h.clk.Now
		h.framesHeld = 0
	}
	gaps := newGapRecorder(1 << 20)
	h.stack.Sink.OnDeliver = func(int) { gaps.done(time.Now()) }
	sink := h.stack.Sink
	vf0, recv0 := sink.VerifyFailures, sink.ReceivedMsgs
	st0, faults0 := h.mgr.Snapshot(), h.sys.Faults
	tlbHit0, tlbMiss0 := h.sys.TLB.Stats()
	ip0 := h.stack.IP.SentPDUs
	calls0 := h.stack.Env.Router.Calls
	res.simLat = make([]simtime.Duration, 0, localSimMsgs)
	var firstDone simtime.Time

	ph := beginTimed(cfg, gaps.bytes()+uint64(cap(res.simLat))*8)
	gaps.start(ph.start)
	deadline := ph.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		n := sizes[(localWarm+i)%len(sizes)]
		t0 := h.clk.Now()
		res.attempted++
		tr.begin("protocols.test")
		err := h.send(n)
		tr.end()
		if err != nil {
			res.failed++
		}
		res.msgs++
		if i < localSimMsgs {
			now := h.clk.Now()
			res.simLat = append(res.simLat, now-t0)
			if i == 0 {
				firstDone = now
			} else {
				res.simBytes += int64(n)
			}
			res.simSpan = now - firstDone
		}
		if res.msgs >= max(localSimMsgs, minSamples) && !time.Now().Before(deadline) {
			break
		}
	}
	endTimed(cfg, ph, res)
	for _, d := range res.simLat {
		res.simCPU += d
	}
	res.wall = wallOf(gaps)
	// Every message must have reached the sink and matched its pattern.
	lost := res.msgs - int(sink.ReceivedMsgs-recv0)
	bad := int(sink.VerifyFailures - vf0)
	res.failed = min(res.attempted, res.failed+max(lost, 0)+bad)

	if tr != nil {
		st := h.mgr.Snapshot()
		msgs := float64(res.msgs)
		tlbHit, tlbMiss := h.sys.TLB.Stats()
		coreLayers(res.layers, msgs, [2]core.Stats{st0, st})
		res.layers["vm.faults_per_msg"] = float64(h.sys.Faults-faults0) / msgs
		res.layers["vm.tlb_miss_ratio"] = ratio(float64(tlbMiss-tlbMiss0), float64(tlbMiss-tlbMiss0+tlbHit-tlbHit0))
		res.layers["mem.frames_allocated_per_msg"] = float64(h.framesHeld) / msgs
		res.layers["protocols.ip.fragments_per_msg"] = float64(h.stack.IP.SentPDUs-ip0) / msgs
		res.layers["ipc.calls_per_msg"] = float64(h.stack.Env.Router.Calls-calls0) / msgs
		selfTimes(res.layers, tr, res.msgs)
	}
	leaked, err := h.teardown()
	res.layers["mem.frames_leaked"] = float64(leaked)
	if err != nil && res.breach == nil {
		res.breach = err
	}
	return res, nil
}

// coreLayers fills the fbuf facility's per-layer metrics from
// Manager.Snapshot reads taken at quiescence before and after the timed
// phase, one pair per host.
func coreLayers(layers map[string]float64, msgs float64, hosts ...[2]core.Stats) {
	var allocs, hits, mappings, reclaimed, piggy, explicit, ring, failures uint64
	for _, h := range hosts {
		a, b := h[0], h[1]
		allocs += b.Allocs - a.Allocs
		hits += b.CacheHits - a.CacheHits
		mappings += b.MappingsBuilt - a.MappingsBuilt
		reclaimed += b.FramesReclaimed - a.FramesReclaimed
		piggy += b.NoticesPiggy - a.NoticesPiggy
		explicit += b.NoticesExplicit - a.NoticesExplicit
		ring += b.NoticesRing - a.NoticesRing
		failures += b.AllocFailures - a.AllocFailures
	}
	layers["core.cache_hit_ratio"] = ratio(float64(hits), float64(allocs))
	layers["core.mappings_built_per_msg"] = float64(mappings) / msgs
	layers["core.frames_reclaimed_per_msg"] = float64(reclaimed) / msgs
	layers["core.notices_piggy_per_msg"] = float64(piggy) / msgs
	layers["core.notices_explicit_per_msg"] = float64(explicit) / msgs
	layers["core.notices_ring_per_msg"] = float64(ring) / msgs
	layers["core.alloc_failures"] = float64(failures)
}
