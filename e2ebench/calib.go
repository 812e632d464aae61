package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The host this benchmark runs on is a 2-vCPU share of a machine whose
// other tenants change its speed by up to about 2x over seconds to
// minutes, in two ways: the hypervisor deschedules the vCPUs (stolen
// time), and the tenants contend for the cores and caches, which slows
// the CPU time of the same work. Timings are therefore CPU time, which
// leaves stolen time out, in calibrated CPU seconds, which takes most of
// the contention out: an operation's CPU time is divided by the host's
// slowdown over the run, measured by a calibration kernel that runs between
// the layer calls of a flow (or between batches of jobs) and never while
// an operation is timed. The kernel is the benchmark's own code, so a
// change to the program moves the operations and not the yardstick.
//
// The kernel is mostly a dependent chain of floating-point square roots,
// which tracks the core's speed, and partly a sparse matrix-vector sweep,
// a sort and map inserts, which track the caches. On a 2-vCPU Xeon guest,
// dividing standard-mode flow wall times by the run's median sample cut
// their spread across seven runs (IQR over median), while the host swung
// between a fast and a slow state, from 47% to 16%. A kernel of cache work
// alone tracked the flows worse than the square roots alone, because the
// flows feel cache contention far less than such a kernel does.

// calibNominal is one kernel run's CPU time on that guest in its faster
// state; a calibrated second is a CPU second scaled by the ratio of
// calibNominal to the run's median sample time.
const calibNominal = 0.05

// calibKernel is the calibration work.
type calibKernel struct {
	rowPtr []int32
	col    []int32
	val    []float64
	x, y   []float64
	keys   []float64
	sorted []float64
}

func newCalibKernel() *calibKernel {
	const n, deg, band = 8192, 8, 512
	rng := rand.New(rand.NewSource(1))
	k := &calibKernel{rowPtr: make([]int32, n+1), x: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			k.col = append(k.col, int32((i+rng.Intn(band)-band/2+n)%n))
			k.val = append(k.val, rng.Float64())
		}
		k.rowPtr[i+1] = int32(len(k.col))
		k.x[i] = rng.Float64()
	}
	k.keys = make([]float64, 20000)
	for i := range k.keys {
		k.keys[i] = rng.Float64()
	}
	k.sorted = make([]float64, len(k.keys))
	return k
}

// run does the kernel's work once and returns a value that depends on all
// of it, so that none of it can be skipped.
func (k *calibKernel) run() float64 {
	s := 1.0
	for i := 0; i < 4_000_000; i++ {
		s = math.Sqrt(s*1.0000001 + 0.5)
	}
	for r := 0; r < 30; r++ {
		for i := range k.y {
			a := 0.0
			for p := k.rowPtr[i]; p < k.rowPtr[i+1]; p++ {
				a += k.val[p] * k.x[k.col[p]]
			}
			k.y[i] = a
		}
		nrm := 0.0
		for _, v := range k.y {
			nrm += v * v
		}
		nrm = 1 / math.Sqrt(nrm)
		for i, v := range k.y {
			k.x[i] = v*nrm + 1e-3
		}
		s += nrm
	}
	copy(k.sorted, k.keys)
	sort.Float64s(k.sorted)
	s += k.sorted[len(k.sorted)/2]
	m := make(map[int]float64)
	for i := 0; i < 20000; i++ {
		m[i*7919%100003] += float64(i)
	}
	return s + float64(len(m))
}

// calibrator measures the host's speed on demand and keeps every sample.
type calibrator struct {
	k       *calibKernel
	samples []float64
	sink    float64
}

func newCalibrator() *calibrator {
	c := &calibrator{k: newCalibKernel()}
	c.sample() // warm-up: page in the kernel's data
	c.samples = c.samples[:0]
	return c
}

// calibReps is how many kernel runs one sample times.
const calibReps = 2

// sample measures the host once and returns the CPU time of one kernel
// run in seconds. It counts only its own thread, so that the collector
// finishing an operation's garbage meanwhile does not count.
func (c *calibrator) sample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuTime(rusageThread)
	for r := 0; r < calibReps; r++ {
		c.sink += c.k.run()
	}
	t := (cpuTime(rusageThread) - t0) / calibReps
	c.samples = append(c.samples, t)
	return t
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall lacks.
const rusageThread = 1

// cpuTime is the user and system CPU time, in seconds, of the process
// (syscall.RUSAGE_SELF) or of the calling thread (rusageThread).
func cpuTime(who int) float64 {
	var r syscall.Rusage
	if err := syscall.Getrusage(who, &r); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // who is a constant; it cannot fail
	}
	return float64(r.Utime.Nano()+r.Stime.Nano()) / 1e9
}

// slowdown is how much slower than nominal the host ran over the run so
// far: the median sample over calibNominal. The median of a run's samples
// moves less than any one sample (about 10% apart within a run), and the
// host's state mostly lasts longer than a run.
func (c *calibrator) slowdown() float64 { return median(c.samples) / calibNominal }

// clock times an operation in segments, in wall time and in process CPU
// time. Between segments it takes a calibration sample, which the
// operation's times leave out, so that a run's samples are spread over
// its operations. A clock without a calibrator only adds up the times.
type clock struct {
	cal     *calibrator
	mark    time.Time
	markCPU float64
	wall    time.Duration
	cpu     float64 // seconds
}

func startClock(cal *calibrator) *clock {
	c := &clock{cal: cal}
	if cal != nil {
		cal.sample()
	}
	c.mark, c.markCPU = time.Now(), cpuTime(syscall.RUSAGE_SELF)
	return c
}

// split ends the current segment and starts the next.
func (c *clock) split() {
	c.wall += time.Since(c.mark)
	c.cpu += cpuTime(syscall.RUSAGE_SELF) - c.markCPU
	if c.cal != nil {
		c.cal.sample()
	}
	c.mark, c.markCPU = time.Now(), cpuTime(syscall.RUSAGE_SELF)
}
