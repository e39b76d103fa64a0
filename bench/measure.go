package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sink keeps results of timed loops alive so the compiler cannot drop them.
var sink uint64

// cpuTime returns the process's user+system CPU time so far. Host-time
// metrics are CPU-based wherever the work is CPU-bound: the box is shared
// and wall clock absorbs its noise.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// reading is what a passMeter saw: wall and CPU seconds of the timed
// segments (the host samples between them left out), the slowdown of the
// host against the reference box over those segments, and the allocation and
// GC activity of the whole pass.
type reading struct {
	Wall, CPU time.Duration
	Elapsed   time.Duration // first segment's start to last one's end, laps' host samples included
	Host      float64
	Mallocs   uint64
	GCCycles  uint32
	GCPauseNs uint64
}

// refCPU and refWall are the pass's times in reference-box seconds.
func (r reading) refCPU() float64  { return r.CPU.Seconds() / r.Host }
func (r reading) refWall() float64 { return r.Wall.Seconds() / r.Host }

// passMeter times one pass as a series of segments. The host's speed is
// sampled before the first segment and after every one (lap), and each
// segment's time is scaled by the slowdown seen on either side of it: the
// finer the laps, the closer the scaling follows the host's drift.
type passMeter struct {
	started   time.Time
	mem       runtime.MemStats
	prevHost  float64
	wall      time.Time
	cpu       time.Duration
	rawWall   time.Duration
	rawCPU    time.Duration
	refCPUSec float64
}

func startPassMeter() *passMeter {
	m := &passMeter{}
	runtime.ReadMemStats(&m.mem)
	m.prevHost = hostSlowdown()
	m.wall, m.cpu = time.Now(), cpuTime()
	m.started = m.wall
	return m
}

// lap ends the current segment, samples the host, and starts the next.
func (m *passMeter) lap() {
	wall, cpu := time.Since(m.wall), cpuTime()-m.cpu
	host := hostSlowdown()
	m.rawWall += wall
	m.rawCPU += cpu
	m.refCPUSec += cpu.Seconds() / ((m.prevHost + host) / 2)
	m.prevHost = host
	m.wall, m.cpu = time.Now(), cpuTime()
}

// stop ends the last segment and returns the pass's reading.
func (m *passMeter) stop() reading {
	elapsed := time.Since(m.started)
	m.lap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{
		Wall: m.rawWall, CPU: m.rawCPU, Elapsed: elapsed,
		Host:      m.rawCPU.Seconds() / m.refCPUSec,
		Mallocs:   ms.Mallocs - m.mem.Mallocs,
		GCCycles:  ms.NumGC - m.mem.NumGC,
		GCPauseNs: ms.PauseTotalNs - m.mem.PauseTotalNs,
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midmean returns the mean of the middle half of xs (the interquartile
// mean). Like the median it ignores outlying passes, but it averages the
// rest instead of picking one: over the same runs its run-to-run spread was
// 3.3 % where the median's was 5.3 % (exact_sweep, three passes a run).
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// timeLoop runs f in chunks of n calls until about budget has passed and
// returns the median nanoseconds per call over the chunks — the probes'
// shared timing loop.
func timeLoop(budget time.Duration, n int, f func()) float64 {
	var perCall []float64
	deadline := time.Now().Add(budget)
	for len(perCall) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(perCall)
}

// The box is shared: over minutes the host takes cycles away (the guest sees
// no steal time, so even CPU seconds stretch), and identical work measured
// 10–45 % apart depending on when it ran. A fixed calibration kernel run
// right before and after every timed region tracks that drift — 20-second
// medians of a simulator loop spread 7 % raw and 1.6 % once divided by it —
// so every reported time is expressed in reference-box seconds: the measured
// time divided by how slow the host just showed itself to be.

// calibNominal is the kernel's CPU time on the quiet reference box.
const calibNominal = 9.0 * time.Millisecond

var calibBuf [1 << 15]uint64

// calibKernel is a fixed mix of integer arithmetic and read-modify-writes
// over a 256 KiB array.
func calibKernel() time.Duration {
	c0 := cpuTime()
	var x uint64 = 1
	for i := 0; i < 6_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calibBuf[(x>>40)&(1<<15-1)] += x
	}
	sink += x
	return cpuTime() - c0
}

// hostSlowdown returns how much slower than the reference the host runs
// right now (1 = reference speed): the median of three kernel runs, so one
// burst of interference does not pass for drift.
func hostSlowdown() float64 {
	runs := []float64{calibKernel().Seconds(), calibKernel().Seconds(), calibKernel().Seconds()}
	return median(runs) / calibNominal.Seconds()
}
