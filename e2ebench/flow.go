package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
	"repro/internal/qp"
)

// placeSpec is a netlist-to-legal-placement workload: one netgen design,
// placed with the zero-value place.Config apart from K, then legalized.
type placeSpec struct {
	cells, nets, rows int
	k                 float64
	// detailed is legalize.Options.DetailedPasses: 0 runs the default
	// detailed passes, -1 stops after row assignment and clumping.
	detailed int
}

// rowsFor is the row count that gives netgen designs a roughly square
// outline at 80% utilization.
func rowsFor(cells int) int { return max(1, int(math.Round(math.Sqrt(float64(cells))/3))) }

// design is a generated input: netlist text, the only form in which the
// program receives it, and its cell count, pads included.
type design struct {
	text  []byte
	cells int
}

// designText generates a design with netgen and encodes it.
func designText(name string, cells, nets, rows int, seed int64) (design, error) {
	nl := netgen.Generate(netgen.Config{Name: name, Cells: cells, Nets: nets, Rows: rows, Seed: seed})
	var buf bytes.Buffer
	if err := netlist.Write(&buf, nl); err != nil {
		return design{}, fmt.Errorf("encode design %s: %w", name, err)
	}
	return design{text: buf.Bytes(), cells: len(nl.Cells)}, nil
}

// flowOut is what one flow produced and, when traced, what its layers
// reported.
type flowOut struct {
	dur        time.Duration // netlist text in to legal text out
	cpu        float64       // the process's CPU seconds meanwhile
	hpwl       float64       // of the written legal placement
	iterations int
	outBytes   int
	global     place.Result
	legal      legalize.Result
	legalSpans *obsv.Spans
}

// runFlow parses the design, places it globally, legalizes it and writes it
// back out, then checks that the written placement is legal. With a
// calibrator it samples the host before the flow, after global placement
// and at the end. With a tracer it records a span around each layer call
// and one per placement transformation, reconstructed from OnIteration.
func runFlow(d design, spec placeSpec, tr *tracer, flow int, cal *calibrator) (flowOut, error) {
	var out flowOut
	cfg := place.Config{K: spec.k}
	opts := legalize.Options{DetailedPasses: spec.detailed}
	clk := startClock(cal)
	root := tr.start(flow, 0, "flow")
	sp := tr.start(flow, root, "netlist.read")
	nl, err := netlist.Read(bytes.NewReader(d.text))
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("parse design: %w", err)
	}
	global := tr.start(flow, root, "place.global")
	if tr != nil {
		cfg.OnIteration = func(s place.IterStats) {
			now := time.Now()
			tr.record(flow, global, "place.step", now.Add(-s.TStep), now)
		}
		out.legalSpans = obsv.NewSpans()
		opts.Spans = out.legalSpans
	}
	out.global, err = place.GlobalContext(context.Background(), nl, cfg)
	tr.end(global)
	if err != nil {
		return out, fmt.Errorf("global placement: %w", err)
	}
	clk.split()
	sp = tr.start(flow, root, "legalize")
	out.legal, err = legalize.Legalize(nl, opts)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("legalize: %w", err)
	}
	sp = tr.start(flow, root, "netlist.write")
	var buf bytes.Buffer
	err = netlist.Write(&buf, nl)
	tr.end(sp)
	tr.end(root)
	clk.split()
	out.dur, out.cpu = clk.wall, clk.cpu
	if err != nil {
		return out, fmt.Errorf("write placement: %w", err)
	}
	written, err := checkLegal(buf.Bytes(), d.cells)
	if err != nil {
		return out, err
	}
	out.hpwl = written.HPWL()
	out.iterations = out.global.Iterations
	out.outBytes = buf.Len()
	return out, nil
}

// qpNNZ is the nonzero count of the quadratic system qp.Build assembles
// for the design, with the options the placer's zero-value Config uses.
func qpNNZ(text []byte) (int, error) {
	nl, err := netlist.Read(bytes.NewReader(text))
	if err != nil {
		return 0, fmt.Errorf("parse design: %w", err)
	}
	return qp.Build(nl, qp.Options{Linearize: true}).Matrix().NNZ(), nil
}

// flowLayers turns one traced flow into per-layer metrics.
func flowLayers(f flowOut, spans []span, vals map[string]float64) {
	tot := totals(spans)
	self := selfTimes(spans)
	ph := f.global.Phases
	vals["netlist.read_s"] = tot["netlist.read"].Seconds()
	vals["netlist.write_s"] = tot["netlist.write"].Seconds()
	vals["netlist.bytes"] = float64(f.outBytes)
	vals["place.global_s"] = tot["place.global"].Seconds()
	// The global span's children are its transformations, so its self
	// time is New, Initialize (with the first solve) and the loop's
	// bookkeeping.
	vals["place.setup_s"] = self["place.global"].Seconds()
	vals["place.iterations"] = float64(f.iterations)
	setPhases(vals, phaseSums{
		step: ph.Step, weight: ph.Weight, gather: ph.Gather, field: ph.Field, build: ph.Build,
		pair: ph.SolvePair, x: ph.SolveX, y: ph.SolveY,
	})
	vals["legalize.total_s"] = tot["legalize"].Seconds()
	vals["legalize.assign_s"] = f.legalSpans.Get("legalize/assign").Total.Seconds()
	vals["legalize.clump_s"] = f.legalSpans.Get("legalize/clump").Total.Seconds()
	vals["legalize.detailed_s"] = f.legalSpans.Get("legalize/detailed").Total.Seconds()
	vals["legalize.swaps"] = float64(f.legal.Swaps)
	vals["legalize.max_disp"] = f.legal.MaxDisp
	vals["bench.self_s"] = self["flow"].Seconds()
}

// phaseSums is a placement run's time by transformation phase.
type phaseSums struct {
	step, weight, gather, field, build, pair, x, y time.Duration
}

// setPhases reports the phase times and what they leave unattributed: step
// time outside weight, gather, field, build and the solve pair.
func setPhases(vals map[string]float64, p phaseSums) {
	vals["place.step_s"] = p.step.Seconds()
	vals["place.weight_s"] = p.weight.Seconds()
	vals["place.gather_s"] = p.gather.Seconds()
	vals["place.field_s"] = p.field.Seconds()
	vals["place.build_s"] = p.build.Seconds()
	vals["place.solve_pair_s"] = p.pair.Seconds()
	vals["place.solve_x_s"] = p.x.Seconds()
	vals["place.solve_y_s"] = p.y.Seconds()
	un := p.step - p.weight - p.gather - p.field - p.build - p.pair
	vals["place.unattributed_s"] = un.Seconds()
	vals["place.unattributed_frac"] = ratio(un.Seconds(), p.step.Seconds())
	vals["sparse.solve_overlap"] = ratio((p.x + p.y).Seconds(), p.pair.Seconds())
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
