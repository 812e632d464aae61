package place

import (
	"math"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/qp"
)

func warmNetlist(seed int64) *netlist.Netlist {
	return netgen.Generate(netgen.Config{
		Name: "warm", Cells: 400, Nets: 520, Rows: 8, Seed: seed,
	})
}

// coldEngine is the cold reference engine as a BeforeTransform hook, which
// Step runs before anything else. Before every transformation it discards
// the cached assembler, so the system is built from scratch (fresh
// sort/merge, fresh preconditioner pattern), and, with noWarm, zeroes the
// CG starting guess, so each solve starts from the zero guess instead of
// the previous response.
func coldEngine(noWarm bool) func(int, *Placer) {
	return func(_ int, p *Placer) {
		p.asm = qp.NewAssembler(p.nl, qp.Options{Linearize: !p.cfg.NoLinearize, Model: p.cfg.NetModel})
		if noWarm {
			for i := range p.warmDX {
				p.warmDX[i], p.warmDY[i] = 0, 0
			}
		}
	}
}

// TestHotEngineMatchesCold runs the full iteration with every reuse
// mechanism on and off (coldEngine). The two engines are not bit-identical
// — the refill sums duplicate matrix entries in insertion order while the
// cold build sums in sorted order (≈1e-16 relative), and the warm start
// changes the CG trajectory below its 1e-6 tolerance — so the comparison
// is at the level the paper cares about: same stopping behavior, same
// placement quality.
func TestHotEngineMatchesCold(t *testing.T) {
	run := func(cold bool) (Result, *netlist.Netlist) {
		nl := warmNetlist(51)
		cfg := Config{MaxIter: 80}
		if cold {
			cfg.BeforeTransform = coldEngine(true)
		}
		res, err := Global(nl, cfg)
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

	// The placements themselves should be close cell-by-cell relative to the
	// region diagonal; the engines follow the same trajectory.
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

// TestWarmStartAloneKeepsQuality isolates the warm start (reuse off) to make
// sure seeding CG with the previous response does not change where the
// iteration ends up.
func TestWarmStartAloneKeepsQuality(t *testing.T) {
	run := func(noWarm bool) Result {
		nl := warmNetlist(52)
		res, err := Global(nl, Config{MaxIter: 60, BeforeTransform: coldEngine(noWarm)})
		if err != nil {
			t.Fatalf("noWarm=%v: %v", noWarm, err)
		}
		return res
	}
	base := run(true)
	warm := run(false)
	if d := math.Abs(warm.HPWL - base.HPWL); d > 0.15*base.HPWL {
		t.Errorf("HPWL: warm %g vs zero-guess %g", warm.HPWL, base.HPWL)
	}
	if d := math.Abs(warm.Overflow - base.Overflow); d > 0.05 {
		t.Errorf("overflow: warm %g vs zero-guess %g", warm.Overflow, base.Overflow)
	}
}

// TestDeterministicHotRuns guards the reuse machinery against hidden state:
// two hot runs from the same seed must be bit-identical.
func TestDeterministicHotRuns(t *testing.T) {
	run := func() *netlist.Netlist {
		nl := warmNetlist(53)
		if _, err := Global(nl, Config{MaxIter: 40}); err != nil {
			t.Fatal(err)
		}
		return nl
	}
	a, b := run(), run()
	for ci := range a.Cells {
		if a.Cells[ci].Pos != b.Cells[ci].Pos {
			t.Fatalf("hot runs diverge at cell %d: %v vs %v", ci, a.Cells[ci].Pos, b.Cells[ci].Pos)
		}
	}
}
