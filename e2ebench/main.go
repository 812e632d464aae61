// Command e2ebench is the repository's end-to-end benchmark. It times the
// placer from netlist text in to legal placement text out, and the serving
// layer from request in to result out, checks every output, and prints one
// JSON result line. With -trace 1 it instead reports per-layer numbers from
// spans it records around each layer's public calls.
//
// Run it from the repository root through e2ebench/run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload std-2k-full --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/density"
	"repro/internal/obsv"
	"repro/internal/sparse"
)

// Every workload keeps fixed designs, because a design's iteration count is
// chaotic in its input (see METRICS.md); -seed orders serve-small's jobs.
// Confirm a claim on second designs with -design-seed 2, which was not
// used while the benchmark was written.
const defaultDesignSeed = 1

var placeWorkloads = map[string]placeSpec{
	"std-2k-full":    {cells: 2000, nets: 2666, rows: 15, k: 0.2, detailed: 0},
	"fast-5k5-legal": {cells: 5500, nets: 7333, rows: 25, k: 1.0, detailed: -1},
}

var serveWorkloads = map[string]serveSpec{
	"serve-small": {designs: 40, minCells: 250, maxCells: 600, segment: 10, minJobs: 110},
}

// A run builds its inputs at least setupRepeats times and for at least
// setupCPU seconds, so that a small design's build, a few milliseconds,
// is timed often enough for a steady median; setup_s is the median.
const (
	setupRepeats = 9
	setupCPU     = 0.5
)

// minFlows is the least number of flows a place run makes, so that the
// determinism check has a repeat to compare.
const minFlows = 2

// outcome is a run's result before printing.
type outcome struct {
	attempted, failed int
	problems          []error // every failed check; any makes the run incorrect
	vals              map[string]float64
}

func (o *outcome) fail(err error) {
	o.failed++
	o.problems = append(o.problems, err)
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time per run, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	designSeed := flag.Int64("design-seed", defaultDesignSeed, "netgen seed of the workloads' designs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	traced := *trace == 1
	wall := time.Duration(*seconds) * time.Second

	var o outcome
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var err error
	if spec, ok := placeWorkloads[*workload]; ok {
		o, err = runPlaceWorkload(*workload, spec, *designSeed, wall, tr)
	} else if spec, ok := serveWorkloads[*workload]; ok {
		o, err = runServeWorkload(spec, *designSeed, *seed, wall, tr)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	if traced {
		if err := writeSpans(tr, *workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		reportCoverage(*workload, o.vals)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	correct := len(o.problems) == 0
	if err := writeResult(os.Stdout, correct, o.attempted, o.failed, defs, o.vals); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// setup builds a run's inputs as often as setupRepeats and setupCPU ask,
// checks that every build is identical, and returns the last with the
// median CPU time of a build.
func setup[T any](build func() (T, error), same func(a, b T) bool) (T, float64, error) {
	var prev T
	var times []float64
	for i := 0; i < setupRepeats || sum(times) < setupCPU; i++ {
		t0 := cpuTime(syscall.RUSAGE_SELF)
		in, err := build()
		times = append(times, cpuTime(syscall.RUSAGE_SELF)-t0)
		if err != nil {
			return in, 0, err
		}
		if i > 0 && !same(prev, in) {
			return in, 0, errors.New("input generation is not deterministic")
		}
		prev = in
	}
	return prev, median(times), nil
}

// runPlaceWorkload times flows on one design for about wall, and at least
// minFlows of them. Traced, it makes one untraced flow and one traced flow and
// reports the traced one's layers.
func runPlaceWorkload(name string, spec placeSpec, designSeed int64, wall time.Duration, tr *tracer) (outcome, error) {
	o := outcome{vals: map[string]float64{}}
	var cal *calibrator
	if tr == nil {
		cal = newCalibrator()
	}
	d, setupS, err := setup(func() (design, error) {
		return designText(name, spec.cells, spec.nets, spec.rows, designSeed)
	}, func(a, b design) bool { return bytes.Equal(a.text, b.text) })
	if err != nil {
		return o, err
	}

	var flows []flowOut
	var walls, cpus, allocs []float64
	check := func(f flowOut) {
		if len(flows) > 0 && (f.hpwl != flows[0].hpwl || f.iterations != flows[0].iterations) {
			o.fail(fmt.Errorf("flow %d is not deterministic: hpwl %v iterations %d, first flow hpwl %v iterations %d",
				len(flows)+1, f.hpwl, f.iterations, flows[0].hpwl, flows[0].iterations))
		}
		flows = append(flows, f)
	}
	start := time.Now()
	var last time.Duration // the last flow's time, calibration included
	for {
		// Traced, one untraced flow gives the overhead baseline. Timed, the
		// run ends at whichever flow ends nearest to wall.
		if tr != nil && len(cpus) == 1 || len(cpus) >= minFlows && time.Since(start)+last/2 >= wall {
			break
		}
		t0 := time.Now()
		o.attempted++
		before := readMem()
		f, err := runFlow(d, spec, nil, len(flows)+1, cal)
		after := readMem()
		if err != nil {
			o.fail(err)
			break
		}
		walls = append(walls, f.dur.Seconds())
		cpus = append(cpus, f.cpu)
		last = time.Since(t0)
		if cal != nil {
			fmt.Fprintf(os.Stderr, "flow %d: %.4f s wall, %.4f s CPU\n", len(cpus), f.dur.Seconds(), f.cpu)
		}
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		check(f)
	}
	if tr == nil {
		f := cal.slowdown()
		durs := scaled(cpus, 1/f)
		reportTimings(durs)
		reportRaw(walls, cpus, cal)
		o.vals["setup_s"] = setupS / f
		o.vals["flow_cpu_s"] = median(durs)
		o.vals["flow_tail_cpu_s"], _ = tail(durs)
		o.vals["ops_per_cpu_s"] = float64(len(durs)) / sum(durs)
		if len(flows) > 0 {
			o.vals["hpwl"] = flows[0].hpwl
		}
		o.vals["alloc_mb"] = median(allocs)
		return o, nil
	}
	if o.failed > 0 {
		return o, nil
	}

	nnz, err := qpNNZ(d.text)
	if err != nil {
		return o, err
	}
	reg := enableRegistries()
	mem := startMemSampler()
	before := readMem()
	o.attempted++
	f, err := runFlow(d, spec, tr, len(flows)+1, nil)
	after := readMem()
	peak := mem.stop()
	disableRegistries()
	if err != nil {
		o.fail(err)
		return o, nil
	}
	check(f)
	flowLayers(f, tr.snapshot(), o.vals)
	o.vals["qp.nnz"] = float64(nnz)
	registryLayers(reg, 1, o.vals)
	memLayers(before, after, peak, 1, o.vals)
	zero(o.vals, "serve.")
	o.vals["trace.overhead_frac"] = f.dur.Seconds()/walls[0] - 1
	return o, nil
}

// runServeWorkload drives the closed loop for wall. Traced, it makes an
// untraced pass of one round, then a traced pass over the same jobs, and
// reports the traced pass's layers; one round keeps the traced run well
// inside its time limit.
func runServeWorkload(spec serveSpec, designSeed, seed int64, wall time.Duration, tr *tracer) (outcome, error) {
	o := outcome{vals: map[string]float64{}}
	cal := newCalibrator()
	pool, setupS, err := setup(func() ([]poolJob, error) { return jobPool(spec, designSeed) }, samePool)
	if err != nil {
		return o, err
	}
	order := jobOrder(spec.designs, 10, seed)

	before := readMem()
	stop := spec.roundsDone(wall)
	if tr != nil {
		stop = func(ran int, _ time.Duration) bool { return ran >= spec.designs }
	}
	run, err := runServe(spec, pool, order, stop, nil, cal)
	after := readMem()
	if err != nil {
		return o, err
	}
	firstRun := map[int]jobOut{}
	var walls, cpus []float64
	checkRun := func(run serveRun) {
		for i, j := range run.jobs {
			o.attempted++
			if run.errs[i] != nil {
				o.fail(run.errs[i])
				continue
			}
			walls = append(walls, j.lat.Seconds())
			cpus = append(cpus, j.cpu)
			if first, ok := firstRun[j.design]; !ok {
				firstRun[j.design] = j
			} else if j.hpwl != first.hpwl || j.iterations != first.iterations {
				o.fail(fmt.Errorf("design %d is not deterministic: hpwl %v iterations %d, first run hpwl %v iterations %d",
					j.design, j.hpwl, j.iterations, first.hpwl, first.iterations))
			}
		}
	}
	checkRun(run)
	if len(firstRun) != len(pool) {
		o.problems = append(o.problems, fmt.Errorf("%d of %d pool designs completed", len(firstRun), len(pool)))
	}
	if tr == nil {
		f := cal.slowdown()
		lats := scaled(cpus, 1/f)
		reportTimings(lats)
		reportRaw(walls, cpus, cal)
		o.vals["setup_s"] = setupS / f
		o.vals["flow_cpu_s"] = median(lats)
		o.vals["flow_tail_cpu_s"], _ = tail(lats)
		o.vals["ops_per_cpu_s"] = float64(len(lats)) / (run.cpu / f)
		sum := 0.0
		for i := range pool {
			sum += firstRun[i].hpwl
		}
		o.vals["hpwl"] = sum
		o.vals["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(run.jobs))
		return o, nil
	}
	if o.failed > 0 {
		return o, nil
	}

	n := len(run.jobs)
	nnz := 0.0
	for _, p := range pool {
		v, err := qpNNZ(p.text)
		if err != nil {
			return o, err
		}
		nnz += float64(v)
	}
	reg := enableRegistries()
	mem := startMemSampler()
	before = readMem()
	trun, err := runServe(spec, pool, order[:n], func(int, time.Duration) bool { return false }, tr, nil)
	after = readMem()
	peak := mem.stop()
	disableRegistries()
	if err != nil {
		return o, err
	}
	checkRun(trun)
	serveLayers(trun, tr.snapshot(), o.vals)
	o.vals["qp.nnz"] = nnz / float64(len(pool))
	registryLayers(reg, float64(n), o.vals)
	memLayers(before, after, peak, float64(n), o.vals)
	rejected := 0
	for _, j := range append(run.jobs, trun.jobs...) {
		if j.rejected {
			rejected++
		}
	}
	o.vals["serve.rejected"] = float64(rejected)
	zero(o.vals, "legalize.", "netlist.read_s", "netlist.write_s")
	o.vals["trace.overhead_frac"] = trun.wall.Seconds()/run.wall.Seconds() - 1
	return o, nil
}

// reportTimings states on stderr how many samples the timings rest on.
func reportTimings(xs []float64) {
	_, p := tail(xs)
	fmt.Fprintf(os.Stderr, "timings: flow_cpu_s is the median of %d operations, flow_tail_cpu_s their p%v\n", len(xs), p)
}

// reportRaw states on stderr the uncalibrated medians and how fast the
// host was.
func reportRaw(walls, cpus []float64, cal *calibrator) {
	fmt.Fprintf(os.Stderr, "raw: median operation %.4f s wall, %.4f s CPU; %d calibration samples, median %.4f s (nominal %.4f s): %.4f\n",
		median(walls), median(cpus), len(cal.samples), median(cal.samples), calibNominal, cal.samples)
}

// scaled returns xs, each multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func samePool(a, b []poolJob) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// zero reports 0 for the per-layer metrics, selected by name prefix, of
// layers the workload does not run.
func zero(vals map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				vals[d.name] = 0
			}
		}
	}
}

// enableRegistries routes the solver's and the field's own metrics into a
// fresh registry for the traced part of a run.
func enableRegistries() *obsv.Registry {
	reg := obsv.NewRegistry()
	sparse.EnableMetrics(reg)
	density.EnableMetrics(reg)
	return reg
}

// disableRegistries detaches the solver and the field from any registry.
func disableRegistries() {
	sparse.EnableMetrics(nil)
	density.EnableMetrics(nil)
}

// registryLayers reads the sparse and density registries, per operation.
func registryLayers(reg *obsv.Registry, ops float64, vals map[string]float64) {
	count := func(name string) float64 { return float64(reg.Counter(name, "").Value()) / ops }
	field := func(method string) float64 {
		return reg.Histogram(`density_field_seconds{method="`+method+`"}`, "", obsv.SecondsBuckets).Sum() / ops
	}
	vals["sparse.cg_iters.jacobi"] = count(`sparse_cg_iterations_total{precond="jacobi"}`)
	vals["sparse.cg_iters.ic0"] = count(`sparse_cg_iterations_total{precond="ic0"}`)
	vals["sparse.cg_solves"] = count(`sparse_cg_solves_total{precond="jacobi"}`) + count(`sparse_cg_solves_total{precond="ic0"}`)
	vals["sparse.cg_nonconverged"] = count(`sparse_cg_nonconverged_total{precond="jacobi"}`) + count(`sparse_cg_nonconverged_total{precond="ic0"}`)
	vals["density.field_s.rfft"] = field("rfft")
	vals["density.field_s.direct"] = field("direct")
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// memLayers reports the Go runtime's allocation and collection work, per
// operation, and the peak live heap the sampler saw.
func memLayers(before, after runtime.MemStats, peak uint64, ops float64, vals map[string]float64) {
	vals["mem.heap_peak_mb"] = float64(peak) / 1e6
	vals["mem.gc_cycles"] = float64(after.NumGC-before.NumGC) / ops
	vals["mem.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9 / ops
}

// memSampler polls the live heap size until stopped.
type memSampler struct {
	quit chan struct{}
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-m.quit:
				m.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the sampler and returns the peak it saw.
func (m *memSampler) stop() uint64 {
	close(m.quit)
	return <-m.done
}

// writeSpans keeps the traced run's spans under .bench_build/spans.
func writeSpans(tr *tracer, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// coverageLimit is the share of step time that may fall outside every
// named phase before the traced run flags it.
const coverageLimit = 0.05

// reportCoverage prints the step time no phase accounts for. It flags the
// gap and does not fail the run.
func reportCoverage(workload string, vals map[string]float64) {
	frac := vals["place.unattributed_frac"]
	flag := "ok"
	if frac > coverageLimit {
		flag = fmt.Sprintf("FLAG: above %.0f%%", coverageLimit*100)
	}
	fmt.Fprintf(os.Stderr, "phase coverage: %s place.unattributed_frac=%.4f (%.3fs of %.3fs step) %s\n",
		workload, frac, vals["place.unattributed_s"], vals["place.step_s"], flag)
}
