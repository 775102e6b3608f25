//detlint:parallel
package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fbufs/internal/simtime"
)

// splitmix is the benchmark's seeded generator: every input a workload
// sends is derived from it, so one seed always yields the same inputs.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// sizeMix returns n message sizes in [lo, hi] bytes. The sizes are a
// stratified sample of the uniform (or, with logScale, the log-uniform)
// distribution: stratum i holds one size at a seeded offset inside it.
// Every seed therefore sends a different set of sizes, yet the mix is so
// even that its percentiles move far less than a random draw would, and
// the benchmark's bounds can be tight. The sizes are shuffled by order,
// which is r itself for a seeded order.
func sizeMix(r, order *splitmix, n, lo, hi int, logScale bool) []int {
	u := r.float()
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + u) / float64(n)
		var v float64
		if logScale {
			v = math.Exp(math.Log(float64(lo)) + q*(math.Log(float64(hi))-math.Log(float64(lo))))
		} else {
			v = float64(lo) + q*float64(hi-lo)
		}
		out[i] = min(max(int(math.Round(v)), lo), hi)
	}
	for i := n - 1; i > 0; i-- {
		j := int(order.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// quantile returns the mid-distribution q-quantile of a sorted sample
// (Parzen's mid-quantile): each distinct value sits at its mid-rank, the
// cumulative share of smaller values plus half its own share, and the
// quantile interpolates linearly between neighbouring values. On a sample
// of distinct values it is the usual interpolated order statistic; on a
// simulated latency that takes few distinct values it moves smoothly with
// the share of each value instead of snapping from one to the next.
func quantile(sorted []float64, q float64) float64 {
	n := float64(len(sorted))
	if n == 0 {
		return 0
	}
	prevV, prevMid := sorted[0], -1.0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		mid := (float64(i) + float64(j-i)/2) / n
		if mid >= q {
			if prevMid < 0 {
				return sorted[i]
			}
			return prevV + (sorted[i]-prevV)*(q-prevMid)/(mid-prevMid)
		}
		prevV, prevMid = sorted[i], mid
		i = j
	}
	return sorted[len(sorted)-1]
}

// dist is a percentile summary of one full sample.
type dist struct {
	n        int
	p50, p99 float64
	// beyondP99 counts samples above p99.
	beyondP99 int
}

func distOf(sample []float64) dist {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: quantile(s, 0.5), p99: quantile(s, 0.99)}
	d.beyondP99 = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > d.p99 })
	return d
}

func simDist(sample []simtime.Duration) dist {
	f := make([]float64, len(sample))
	for i, d := range sample {
		f[i] = float64(d) / 1e3
	}
	return distOf(f)
}

// wallBlock is how many consecutive completions one block of wall
// samples holds. The wall metrics are medians over blocks, so a burst of
// interference from other tenants of a shared host spoils the blocks it
// lands in instead of the whole run; a block of 2000 leaves 20 samples
// beyond its p99.
const wallBlock = 2000

// minSamples is the fewest timed completions a run keeps: three blocks.
const minSamples = 3 * wallBlock

// gapRecorder keeps the wall time between consecutive completions at a
// sink, in microseconds. Its buffer is allocated before timing starts, so
// recording allocates nothing inside the timed phase; completions past
// its capacity are counted but not kept.
type gapRecorder struct {
	gaps []float32
	last time.Time
}

func newGapRecorder(capacity int) *gapRecorder {
	return &gapRecorder{gaps: make([]float32, 0, capacity)}
}

// bytes is the heap the recorder's buffer holds.
func (g *gapRecorder) bytes() uint64 { return uint64(cap(g.gaps)) * 4 }

// start marks the instant the first timed completion is measured from.
func (g *gapRecorder) start(now time.Time) { g.gaps, g.last = g.gaps[:0], now }

func (g *gapRecorder) done(now time.Time) {
	if len(g.gaps) < cap(g.gaps) {
		g.gaps = append(g.gaps, float32(now.Sub(g.last).Nanoseconds())/1e3)
	}
	g.last = now
}

// wallStats summarizes the wall samples of a timed phase.
type wallStats struct {
	n, blocks int
	rate      float64 // completions per second
	p50, p99  float64 // gap between completions, microseconds
}

// wallOf cuts each recorder's samples into blocks of wallBlock and reports
// the median over blocks of the completion rate and of the gap p50 and
// p99. Recorders run side by side (one per worker), so their rates add.
func wallOf(recs ...*gapRecorder) wallStats {
	var st wallStats
	var p50s, p99s []float64
	blk := make([]float64, 0, wallBlock)
	for _, g := range recs {
		st.n += len(g.gaps)
		var rates []float64
		for i := 0; i < len(g.gaps); i += wallBlock {
			end := min(i+wallBlock, len(g.gaps))
			if i > 0 && end-i < wallBlock {
				break // a short tail block would be noisier than the rest
			}
			blk = blk[:0]
			var sum float64
			for _, v := range g.gaps[i:end] {
				blk = append(blk, float64(v))
				sum += float64(v)
			}
			d := distOf(blk)
			rates = append(rates, float64(len(blk))/(sum/1e6))
			p50s, p99s = append(p50s, d.p50), append(p99s, d.p99)
		}
		st.blocks += len(rates)
		st.rate += median(rates)
	}
	st.p50, st.p99 = median(p50s), median(p99s)
	return st
}

// goPhase measures the Go runtime's cost of a timed phase: allocations,
// GC cycles and GC CPU from runtime.MemStats, and the heap in use from a
// sampler reading runtime/metrics every millisecond.
type goPhase struct {
	start   time.Time
	before  runtime.MemStats
	cpu0    float64
	stop    chan struct{}
	wg      sync.WaitGroup
	elapsed time.Duration
	after   runtime.MemStats
	cpu1    float64
	prof    *cpuProfile // traced runs only

	// own is the heap the benchmark's preallocated sample buffers hold;
	// it is subtracted so the heap metric reports the program's heap.
	own uint64
	// cyclePeaks holds, for each GC cycle completed during the phase, the
	// largest heap in use the sampler saw in it; cur is the running peak
	// of the cycle in progress.
	cyclePeaks []uint64
	cycle, cur uint64
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
}

func (p *goPhase) sampleHeap(s []metrics.Sample) {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	if c := s[1].Value.Uint64(); c != p.cycle {
		if p.cycle != 0 && len(p.cyclePeaks) < cap(p.cyclePeaks) {
			p.cyclePeaks = append(p.cyclePeaks, p.cur)
		}
		p.cycle, p.cur = c, 0
	}
	p.cur = max(p.cur, s[0].Value.Uint64())
}

// heapPeak is the peak heap in use in a typical GC cycle of the phase,
// less the benchmark's own buffers: the median over completed cycles of
// each cycle's peak. The largest peak of the whole phase would instead
// track the GC pacer's rarest overshoot, which moves by a third from run
// to run on a shared two-core host.
func (p *goPhase) heapPeak() float64 {
	peaks := make([]float64, 0, len(p.cyclePeaks)+1)
	for _, v := range p.cyclePeaks {
		peaks = append(peaks, float64(v))
	}
	if len(peaks) == 0 {
		peaks = append(peaks, float64(p.cur))
	}
	return median(peaks) - float64(p.own)
}

// gcCPU returns the cumulative CPU seconds the runtime has charged to
// garbage collection.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// beginTimed starts a timed phase. It collects garbage so every phase
// starts from the same heap, then starts the heap sampler, on a traced run
// the CPU profile, and the clock. own is the heap the benchmark's
// preallocated sample buffers hold.
func beginTimed(cfg config, own uint64) *goPhase {
	runtime.GC()
	p := &goPhase{stop: make(chan struct{}), cyclePeaks: make([]uint64, 0, 1<<16)}
	p.own = own + uint64(cap(p.cyclePeaks))*8
	runtime.ReadMemStats(&p.before)
	p.cpu0 = gcCPU()
	p.sampleHeap(heapSamples())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := heapSamples()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sampleHeap(s)
			}
		}
	}()
	if cfg.trace != nil {
		p.prof = &cpuProfile{}
		p.prof.start()
	}
	p.start = time.Now()
	return p
}

// end stops the clock and the sampler and reads the closing counters.
func (p *goPhase) end() {
	p.elapsed = time.Since(p.start)
	close(p.stop)
	p.wg.Wait()
	p.sampleHeap(heapSamples())
	runtime.ReadMemStats(&p.after)
	p.cpu1 = gcCPU()
}

func (p *goPhase) mallocs() uint64    { return p.after.Mallocs - p.before.Mallocs }
func (p *goPhase) allocBytes() uint64 { return p.after.TotalAlloc - p.before.TotalAlloc }
func (p *goPhase) gcCycles() uint32   { return p.after.NumGC - p.before.NumGC }

// gcFraction is the share of the phase's available CPU (wall time times
// GOMAXPROCS) the garbage collector used.
func (p *goPhase) gcFraction() float64 {
	avail := p.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0))
	if avail <= 0 {
		return 0
	}
	return (p.cpu1 - p.cpu0) / avail
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
