package place

import (
	"testing"
	"time"

	"repro/internal/obsv"
)

// TestObserverConsistency checks the observability contract: the stats
// delivered to OnIteration are exactly the Result.Trace entries, and the
// per-phase durations are positive and consistent with the iteration
// wall time.
func TestObserverConsistency(t *testing.T) {
	nl := testCircuit(t, 200, 4)
	var observed []IterStats
	res, err := Global(nl, Config{
		MaxIter:     40,
		OnIteration: func(s IterStats) { observed = append(observed, s) },
	})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	if len(observed) != len(res.Trace) || len(observed) != res.Iterations {
		t.Fatalf("observer saw %d iterations, trace has %d, result says %d",
			len(observed), len(res.Trace), res.Iterations)
	}
	for i := range observed {
		if observed[i] != res.Trace[i] {
			t.Fatalf("iteration %d: observer stats %+v != trace entry %+v",
				i, observed[i], res.Trace[i])
		}
	}
	for i, s := range observed {
		if s.TStep <= 0 {
			t.Fatalf("iteration %d: TStep = %v, want > 0", i, s.TStep)
		}
		for name, d := range map[string]time.Duration{
			"gather": s.TGather, "field": s.TField, "build": s.TBuild,
			"solve-x": s.TSolveX, "solve-y": s.TSolveY,
		} {
			if d <= 0 {
				t.Fatalf("iteration %d: phase %s duration = %v, want > 0", i, name, d)
			}
		}
		// The x/y solves run concurrently, so the sequential phases plus
		// the slower solve bound the step wall time from below.
		solve := s.TSolveX
		if s.TSolveY > solve {
			solve = s.TSolveY
		}
		if sum := s.TWeight + s.TGather + s.TField + s.TBuild + solve; sum > s.TStep {
			t.Fatalf("iteration %d: phase sum %v exceeds step wall time %v", i, sum, s.TStep)
		}
		if s.CGResidX < 0 || s.CGResidY < 0 {
			t.Fatalf("iteration %d: negative residuals %g %g", i, s.CGResidX, s.CGResidY)
		}
	}
	// The run-level phase totals must equal the trace sums.
	var want PhaseTotals
	for _, s := range res.Trace {
		want.add(s)
	}
	if res.Phases != want {
		t.Fatalf("Result.Phases %+v != trace sum %+v", res.Phases, want)
	}
}

func TestNoTraceSuppressesTrace(t *testing.T) {
	nl := testCircuit(t, 150, 5)
	calls := 0
	res, err := Global(nl, Config{
		MaxIter:     25,
		NoTrace:     true,
		OnIteration: func(IterStats) { calls++ },
	})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	if len(res.Trace) != 0 {
		t.Fatalf("NoTrace left %d trace entries", len(res.Trace))
	}
	if res.Iterations == 0 || calls != res.Iterations {
		t.Fatalf("aggregates must survive NoTrace: iterations %d, observer calls %d",
			res.Iterations, calls)
	}
	if res.Phases.Step <= 0 {
		t.Fatal("Result.Phases must be filled with NoTrace set")
	}
	if res.HPWL <= 0 {
		t.Fatal("Result.HPWL must be filled with NoTrace set")
	}
}

func TestSpansAndMetricsSinks(t *testing.T) {
	nl := testCircuit(t, 150, 6)
	spans := obsv.NewSpans()
	reg := obsv.NewRegistry()
	res, err := Global(nl, Config{MaxIter: 20, Spans: spans, Metrics: reg})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	for _, phase := range []string{
		"place/gather", "place/field", "place/build",
		"place/solve-x", "place/solve-y", "place/step",
	} {
		st := spans.Get(phase)
		if st.Count != int64(res.Iterations) {
			t.Errorf("span %q recorded %d times, want %d", phase, st.Count, res.Iterations)
		}
		if st.Total <= 0 {
			t.Errorf("span %q total = %v, want > 0", phase, st.Total)
		}
	}
	// The spans are exactly "place/" plus each PhaseKeys entry, one
	// recording per transformation.
	snap := spans.Snapshot()
	for _, k := range PhaseKeys() {
		if st := snap["place/"+k]; st.Count != int64(res.Iterations) {
			t.Errorf("span %q recorded %d times, want %d", "place/"+k, st.Count, res.Iterations)
		}
	}
	if len(snap) != len(PhaseKeys()) {
		t.Errorf("spans %v, want one per PhaseKeys entry %v", snap, PhaseKeys())
	}
	if got := reg.Counter("place_transformations_total", "").Value(); got != int64(res.Iterations) {
		t.Errorf("place_transformations_total = %d, want %d", got, res.Iterations)
	}
	if got := reg.Gauge("place_hpwl", "").Value(); got != res.HPWL {
		t.Errorf("place_hpwl gauge = %g, want %g", got, res.HPWL)
	}
}
