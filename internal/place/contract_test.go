package place

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netgen"
	"repro/internal/qp"
)

// TestKnobsChangeRun: every knob is read by the engine. Setting it away
// from the base value changes a short run's iteration count or placement
// (and so its HPWL); a knob that changes neither is dead.
func TestKnobsChangeRun(t *testing.T) {
	perturb := map[string]any{
		"K":                1.0,
		"MaxIter":          4,
		"GridBins":         32,
		"NoLinearize":      true,
		"NetModel":         qp.Star,
		"KeepPlacement":    true,
		"StopSquareFactor": 1e4,
	}
	base := Config{MaxIter: 12}
	run := func(cfg Config) (int, []float64) {
		nl := testCircuit(t, 150, 6)
		netgen.ScatterRandom(nl, 7)
		res, err := Global(nl, cfg)
		if err != nil {
			t.Fatalf("Global: %v", err)
		}
		var pos []float64
		for _, c := range nl.Cells {
			pos = append(pos, c.Pos.X, c.Pos.Y)
		}
		return res.Iterations, pos
	}
	wantIter, wantPos := run(base)
	for _, name := range Knobs() {
		v, ok := perturb[name]
		if !ok {
			t.Errorf("knob %s has no perturbation in this test", name)
			continue
		}
		cfg := base
		reflect.ValueOf(&cfg).Elem().FieldByName(name).Set(reflect.ValueOf(v))
		if iter, pos := run(cfg); iter == wantIter && slices.Equal(pos, wantPos) {
			t.Errorf("knob %s = %v leaves the run unchanged: the engine never reads it", name, v)
		}
	}
}

// TestPhaseSurfaces: IterStats' t_<phase>_ns tags and PhaseTotals' fields
// are PhaseKeys, in order, and PhaseTotals.add sums every phase.
func TestPhaseSurfaces(t *testing.T) {
	var stats IterStats
	sv := reflect.ValueOf(&stats).Elem()
	var tags []string
	var durs []reflect.Value
	for i := range sv.NumField() {
		tag := sv.Type().Field(i).Tag.Get("json")
		if strings.HasPrefix(tag, "t_") && strings.HasSuffix(tag, "_ns") {
			tags = append(tags, strings.ReplaceAll(strings.TrimSuffix(strings.TrimPrefix(tag, "t_"), "_ns"), "_", "-"))
			durs = append(durs, sv.Field(i))
		}
	}
	if !slices.Equal(tags, PhaseKeys()) {
		t.Fatalf("IterStats phase tags %v, want PhaseKeys %v", tags, PhaseKeys())
	}

	tt := reflect.TypeOf(PhaseTotals{})
	var fields []string
	for i := range tt.NumField() {
		fields = append(fields, kebab(tt.Field(i).Name))
	}
	if !slices.Equal(fields, PhaseKeys()) {
		t.Fatalf("PhaseTotals fields %v, want PhaseKeys %v", fields, PhaseKeys())
	}

	for i, d := range durs {
		d.SetInt(int64(i + 1))
	}
	var tot PhaseTotals
	tot.add(stats)
	tot.add(stats)
	tv := reflect.ValueOf(tot)
	for i, k := range PhaseKeys() {
		if got := time.Duration(tv.Field(i).Int()); got != 2*time.Duration(i+1) {
			t.Errorf("PhaseTotals.add: phase %s sums to %v, want %v", k, got, 2*time.Duration(i+1))
		}
	}
}

// kebab renders a Go field name as a phase key: "SolvePair" → "solve-pair".
func kebab(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('-')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}
