package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{2, 0, false},
		{10, 0, false},
		{39, 0, false},
		{40, 75, true},  // rank 30, ten beyond
		{99, 75, true},  // p90 has rank 90, nine beyond
		{100, 90, true}, // rank 90, ten beyond
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.wantP || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.wantP, tc.ok)
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	xs := make([]float64, 110)
	for i := range xs {
		xs[i] = float64(110 - i) // 1..110, reversed
	}
	if v, p := tail(xs); p != 90 || v != 99 {
		t.Errorf("tail of 1..110 = %v at p%v, want 99 at p90", v, p)
	}
	if v, p := tail([]float64{5, 7}); p != 100 || v != 7 {
		t.Errorf("tail of two samples = %v at p%v, want the maximum 7 at p100", v, p)
	}
}

// legalText generates a small design, legalizes it and writes it out.
func legalText(t *testing.T) (*netlist.Netlist, []byte) {
	t.Helper()
	nl := netgen.Generate(netgen.Config{Name: "t", Cells: 60, Nets: 80, Rows: 3, Seed: 7})
	if _, err := legalize.Legalize(nl, legalize.Options{DetailedPasses: -1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	return nl, buf.Bytes()
}

func TestCheckLegal(t *testing.T) {
	nl, text := legalText(t)
	if _, err := checkLegal(text, len(nl.Cells)); err != nil {
		t.Fatalf("legalized placement rejected: %v", err)
	}
	if _, err := checkLegal(text, len(nl.Cells)+1); err == nil {
		t.Error("wrong cell count accepted")
	}
	first := -1
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			first = i
			break
		}
	}
	doctor := func(name string, move func(c *netlist.Cell)) {
		t.Helper()
		bad := nl.Clone()
		move(&bad.Cells[first])
		var buf bytes.Buffer
		if err := netlist.Write(&buf, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := checkLegal(buf.Bytes(), len(nl.Cells)); err == nil {
			t.Errorf("%s placement accepted", name)
		}
	}
	doctor("outside", func(c *netlist.Cell) { c.Pos.X = nl.Region.Outline.Hi.X + 5 })
	// Move the cell onto its row neighbour: on a row, inside, overlapping.
	doctor("overlapping", func(c *netlist.Cell) {
		for j := range nl.Cells {
			o := &nl.Cells[j]
			if j != first && !o.Fixed && o.Pos.Y == c.Pos.Y {
				c.Pos.X = o.Pos.X
				return
			}
		}
		t.Fatal("no row neighbour to overlap")
	})
}

// TestCheckLegalOffRow moves the only cell of a two-row design off its row,
// where nothing else is wrong with it.
func TestCheckLegalOffRow(t *testing.T) {
	nl := &netlist.Netlist{
		Name:   "row",
		Region: geom.NewRegion(2, 1, 10),
		Cells:  []netlist.Cell{{Name: "a", W: 2, H: 1, Pos: geom.Point{X: 3, Y: 0.5}}},
	}
	write := func() []byte {
		var buf bytes.Buffer
		if err := netlist.Write(&buf, nl); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := checkLegal(write(), 1); err != nil {
		t.Fatalf("cell on its row rejected: %v", err)
	}
	nl.Cells[0].Pos.Y += 0.3
	if _, err := checkLegal(write(), 1); err == nil {
		t.Error("off-row placement accepted")
	}
}

func TestCheckResult(t *testing.T) {
	nl, text := legalText(t)
	if _, err := checkResult(text, len(nl.Cells)); err != nil {
		t.Fatalf("placement rejected: %v", err)
	}
	bad := nl.Clone()
	for i := range bad.Cells {
		if !bad.Cells[i].Fixed {
			bad.Cells[i].Pos.Y = -10
			break
		}
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := checkResult(buf.Bytes(), len(nl.Cells)); err == nil {
		t.Error("cell outside the region accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "flow", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "read", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "global", Start: 10 * ms, End: 80 * ms},
		// Two concurrent children of global: their union is 20..60.
		{ID: 4, Parent: 3, Name: "solve", Start: 20 * ms, End: 50 * ms},
		{ID: 5, Parent: 3, Name: "solve", Start: 30 * ms, End: 60 * ms},
		// A child that runs past its parent counts only inside it.
		{ID: 6, Parent: 1, Name: "write", Start: 90 * ms, End: 120 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"flow":   100*ms - 10*ms - 70*ms - 10*ms,
		"read":   10 * ms,
		"global": 70*ms - 40*ms,
		"solve":  60 * ms,
		"write":  30 * ms,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if got := totals(spans)["solve"]; got != 60*ms {
		t.Errorf("total of solve = %v, want 60ms", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start(1, 0, "x")
	tr.end(id)
	tr.record(1, id, "y", time.Now(), time.Now())
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

// validName is the metric-name syntax the result line promises.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames holds the emitted metric names to the result line's
// syntax and to BENCHMARK.json, which declares them.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		t.Helper()
		var got, want []string
		for _, d := range defs {
			if !validName.MatchString(d.name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, d.name)
			}
			got = append(got, d.name+" "+d.unit)
		}
		for _, d := range declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n got  %v\n want %v", kind, got, want)
		}
	}
	check("end-to-end", endToEnd, bj.EndToEnd)
	check("per-layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		_, place := placeWorkloads[w.Name]
		_, srv := serveWorkloads[w.Name]
		if !place && !srv {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(bj.Workloads) != len(placeWorkloads)+len(serveWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bj.Workloads), len(placeWorkloads)+len(serveWorkloads))
	}
	for _, bad := range []string{"", "a b", "p90%", "x/y"} {
		if validName.MatchString(bad) {
			t.Errorf("invalid name %q accepted", bad)
		}
	}
}

func TestWriteResult(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}}
	var buf bytes.Buffer
	if err := writeResult(&buf, true, 1, 0, defs, map[string]float64{}); err == nil {
		t.Error("a missing metric was written for a correct run")
	}
	if err := writeResult(&buf, true, 3, 0, defs, map[string]float64{"a_s": 1.25}); err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 3 || r.Metrics["a_s"] != (metricJSON{1.25, "s"}) {
		t.Errorf("result = %+v", r)
	}
}

// TestRunServeTraced drives a small pool through the service, traced, and
// checks every job, the repeat determinism and the spans.
func TestRunServeTraced(t *testing.T) {
	spec := serveSpec{designs: 4, minCells: 30, maxCells: 60, segment: 2, minJobs: 8}
	pool, err := jobPool(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	order := jobOrder(spec.designs, 3, 5)
	tr := newTracer()
	run, err := runServe(spec, pool, order, spec.roundsDone(0), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.jobs) != 8 {
		t.Fatalf("ran %d jobs, want the 8 of two whole rounds", len(run.jobs))
	}
	first := map[int]float64{}
	for i, j := range run.jobs {
		if run.errs[i] != nil {
			t.Fatalf("job %d: %v", i, run.errs[i])
		}
		if h, ok := first[j.design]; ok && h != j.hpwl {
			t.Errorf("design %d gave hpwl %v and %v", j.design, h, j.hpwl)
		}
		first[j.design] = j.hpwl
		if j.status.State != "done" || len(j.events) == 0 || j.polls != 1 {
			t.Errorf("job %d: state %s, %d events, %d polls", i, j.status.State, len(j.events), j.polls)
		}
	}
	// The traced pass repeats exactly the jobs it is given, whole rounds
	// or not.
	again, err := runServe(spec, pool, order[:6], func(int, time.Duration) bool { return false }, nil, newCalibrator())
	if err != nil || len(again.jobs) != 6 {
		t.Fatalf("repeat pass ran %d jobs (err %v), want 6", len(again.jobs), err)
	}
	vals := map[string]float64{}
	serveLayers(run, tr.snapshot(), vals)
	if vals["serve.submit_s"] <= 0 || vals["place.step_s"] <= 0 || vals["place.iterations"] < 1 {
		t.Errorf("layers = %v", vals)
	}
}

// TestRunFlowTraced places a small design and checks the flow's spans.
func TestRunFlowTraced(t *testing.T) {
	d, err := designText("t", 150, 200, rowsFor(150), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := placeSpec{cells: 150, nets: 200, rows: rowsFor(150), k: 1, detailed: 0}
	plain, err := runFlow(d, spec, nil, 1, newCalibrator())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runFlow(d, spec, tr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.hpwl != traced.hpwl || plain.iterations != traced.iterations {
		t.Errorf("tracing changed the flow: hpwl %v/%v iterations %d/%d", plain.hpwl, traced.hpwl, plain.iterations, traced.iterations)
	}
	spans := tr.snapshot()
	n := map[string]int{}
	for _, s := range spans {
		n[s.Name]++
		if s.Flow != 2 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if n["flow"] != 1 || n["place.step"] != traced.iterations || n["legalize"] != 1 {
		t.Errorf("span counts %v, want one flow and legalize and %d steps", n, traced.iterations)
	}
	vals := map[string]float64{}
	flowLayers(traced, spans, vals)
	if vals["place.setup_s"] <= 0 || vals["place.setup_s"] >= vals["place.global_s"] {
		t.Errorf("place.setup_s %v not inside place.global_s %v", vals["place.setup_s"], vals["place.global_s"])
	}
}

// TestClockCalibrates checks that a clock samples the host between
// segments and leaves the samples out of the operation's times, and that
// the slowdown is the median sample over nominal.
func TestClockCalibrates(t *testing.T) {
	spin := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	plain := startClock(nil)
	spin(5 * time.Millisecond)
	plain.split()
	if plain.wall < 5*time.Millisecond || plain.cpu <= 0 {
		t.Errorf("uncalibrated clock: wall %v, cpu %v", plain.wall, plain.cpu)
	}

	cal := newCalibrator()
	t0 := time.Now()
	clk := startClock(cal)
	spin(20 * time.Millisecond)
	clk.split()
	spin(10 * time.Millisecond)
	clk.split()
	total := time.Since(t0)
	s := cal.samples
	if len(s) != 3 {
		t.Fatalf("%d samples, want 3", len(s))
	}
	// A sample's CPU time bounds its wall time from below.
	sampled := time.Duration((s[0] + s[1] + s[2]) * calibReps * float64(time.Second))
	if clk.wall < 30*time.Millisecond || clk.wall > total-sampled+5*time.Millisecond {
		t.Errorf("wall %v: want the 30ms spun, without the %v of samples (total %v)", clk.wall, sampled, total)
	}
	if clk.cpu <= 0 || clk.cpu > clk.wall.Seconds()*float64(runtime.NumCPU())+0.01 {
		t.Errorf("cpu %v s over wall %v", clk.cpu, clk.wall)
	}
	cal.samples = []float64{0.2, 0.05, 0.1}
	if f := cal.slowdown(); f != 0.1/calibNominal {
		t.Errorf("slowdown %v, want the median sample over nominal, %v", f, 0.1/calibNominal)
	}
}
