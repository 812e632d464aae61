package place

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/density"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

// globalWith is Global with the solver paths forced instead of picked by
// size: the preconditioner of every solve, the initial one included, and
// the field method of every transformation.
func globalWith(nl *netlist.Netlist, cfg Config, pc sparse.Preconditioner, fm density.Method) (Result, error) {
	p := New(nl, cfg)
	p.precond, p.field = pc, fm
	return p.Run(context.Background())
}

// solver2 runs the v2 solver engine under test, IC0-preconditioned CG plus
// the real-input FFT field solver, on these small designs that would
// otherwise get Jacobi and the direct sum; cold selects the coldEngine
// reference.
func solver2(nl *netlist.Netlist, maxIter int, cold bool) (Result, error) {
	cfg := Config{MaxIter: maxIter}
	if cold {
		cfg.BeforeTransform = coldEngine(true)
	}
	return globalWith(nl, cfg, sparse.IC0, density.RealFFT)
}

// TestSolverV2HotEngineMatchesCold is TestHotEngineMatchesCold with the v2
// solver engine switched on: reuse (pattern refill + refactored IC0 factor)
// and the warm start must land on the same placement as the cold
// rebuild-everything engine, at the paper's quality level.
func TestSolverV2HotEngineMatchesCold(t *testing.T) {
	run := func(cold bool) (Result, *netlist.Netlist) {
		nl := warmNetlist(54)
		res, err := solver2(nl, 80, cold)
		if err != nil {
			t.Fatalf("cold=%v: %v", cold, err)
		}
		return res, nl
	}
	coldRes, coldNl := run(true)
	hotRes, hotNl := run(false)

	if hotRes.StopReason != coldRes.StopReason {
		t.Errorf("stop reason: hot %q vs cold %q", hotRes.StopReason, coldRes.StopReason)
	}
	ci, hi := coldRes.Iterations, hotRes.Iterations
	if d := math.Abs(float64(hi - ci)); d > 0.3*float64(ci)+2 {
		t.Errorf("iterations: hot %d vs cold %d", hi, ci)
	}
	if d := math.Abs(hotRes.HPWL - coldRes.HPWL); d > 0.15*coldRes.HPWL {
		t.Errorf("HPWL: hot %g vs cold %g", hotRes.HPWL, coldRes.HPWL)
	}
	if d := math.Abs(hotRes.Overflow - coldRes.Overflow); d > 0.05 {
		t.Errorf("overflow: hot %g vs cold %g", hotRes.Overflow, coldRes.Overflow)
	}
	diag := math.Hypot(coldNl.Region.W(), coldNl.Region.H())
	var worst float64
	for ciN := range coldNl.Cells {
		d := coldNl.Cells[ciN].Pos.Sub(hotNl.Cells[ciN].Pos).Norm()
		if d > worst {
			worst = d
		}
	}
	if worst > 0.1*diag {
		t.Errorf("max cell divergence %.3g exceeds 10%% of the region diagonal %.3g", worst, diag)
	}
}

// TestSolverV2Deterministic: two hot runs with IC0 + real FFT must be
// bit-identical — the factor refactorization and the half-spectrum cache
// introduce no hidden cross-run state.
func TestSolverV2Deterministic(t *testing.T) {
	run := func() *netlist.Netlist {
		nl := warmNetlist(55)
		if _, err := solver2(nl, 40, false); err != nil {
			t.Fatal(err)
		}
		return nl
	}
	a, b := run(), run()
	for ci := range a.Cells {
		if a.Cells[ci].Pos != b.Cells[ci].Pos {
			t.Fatalf("v2 hot runs diverge at cell %d: %v vs %v", ci, a.Cells[ci].Pos, b.Cells[ci].Pos)
		}
	}
}

// TestIC0CutsCGIterations compares total CG work across a run. The IC0
// engine must converge each solve in fewer iterations than Jacobi, and the
// placement it reaches must be of the same quality.
func TestIC0CutsCGIterations(t *testing.T) {
	run := func(p sparse.Preconditioner) (total int, res Result) {
		nl := warmNetlist(56)
		res, err := globalWith(nl, Config{MaxIter: 40}, p, density.Auto)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Trace {
			total += s.CGIterX + s.CGIterY
		}
		return total, res
	}
	jIters, jRes := run(sparse.Jacobi)
	cIters, cRes := run(sparse.IC0)
	if cIters >= jIters {
		t.Errorf("total CG iterations: ic0 %d vs jacobi %d — no reduction", cIters, jIters)
	}
	if d := math.Abs(cRes.HPWL - jRes.HPWL); d > 0.15*jRes.HPWL {
		t.Errorf("HPWL: ic0 %g vs jacobi %g", cRes.HPWL, jRes.HPWL)
	}
	if d := math.Abs(cRes.Overflow - jRes.Overflow); d > 0.05 {
		t.Errorf("overflow: ic0 %g vs jacobi %g", cRes.Overflow, jRes.Overflow)
	}
}

// TestSolvePairPhaseAccounting: the new solve_pair phase must be populated
// on every traced transformation and obey its documented bounds — positive,
// at least the slower axis, and within the whole step.
func TestSolvePairPhaseAccounting(t *testing.T) {
	nl := warmNetlist(57)
	res, err := Global(nl, Config{MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace rows")
	}
	for _, s := range res.Trace {
		if s.TSolvePair <= 0 {
			t.Fatalf("iter %d: TSolvePair %v not positive", s.Iter, s.TSolvePair)
		}
		slower := s.TSolveX
		if s.TSolveY > slower {
			slower = s.TSolveY
		}
		if s.TSolvePair < slower {
			t.Fatalf("iter %d: pair wall %v below slower axis %v", s.Iter, s.TSolvePair, slower)
		}
		if s.TSolvePair > s.TStep {
			t.Fatalf("iter %d: pair wall %v exceeds step %v", s.Iter, s.TSolvePair, s.TStep)
		}
	}
	if res.Phases.SolvePair <= 0 || res.Phases.SolvePair > res.Phases.Step {
		t.Fatalf("PhaseTotals.SolvePair %v out of range (step total %v)",
			res.Phases.SolvePair, res.Phases.Step)
	}
}

// TestFactorPhaseAccounting: under IC0 every transformation reassembles the
// system, so every step refactors and records a positive factor time that,
// with the solve pair it precedes, fits inside the step. Under Jacobi
// nothing is factored and the phase stays zero.
func TestFactorPhaseAccounting(t *testing.T) {
	for _, pc := range []sparse.Preconditioner{sparse.IC0, sparse.Jacobi} {
		res, err := globalWith(warmNetlist(57), Config{MaxIter: 12}, pc, density.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace) == 0 {
			t.Fatal("no trace rows")
		}
		var sum time.Duration
		for _, s := range res.Trace {
			if pc == sparse.Jacobi && s.TFactor != 0 {
				t.Fatalf("jacobi iter %d: TFactor %v, want 0", s.Iter, s.TFactor)
			}
			if pc == sparse.IC0 && s.TFactor <= 0 {
				t.Fatalf("ic0 iter %d: TFactor %v not positive", s.Iter, s.TFactor)
			}
			if s.TFactor+s.TSolvePair > s.TStep {
				t.Fatalf("%v iter %d: factor %v + pair %v exceed step %v", pc, s.Iter, s.TFactor, s.TSolvePair, s.TStep)
			}
			sum += s.TFactor
		}
		if res.Phases.Factor != sum {
			t.Fatalf("%v: PhaseTotals.Factor %v, trace sum %v", pc, res.Phases.Factor, sum)
		}
	}
}
