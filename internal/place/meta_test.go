package place

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/netgen"
)

func TestConfigHashStability(t *testing.T) {
	a := Config{K: 0.2, MaxIter: 100}
	b := Config{K: 0.2, MaxIter: 100}
	if a.Hash() != b.Hash() {
		t.Errorf("equal configs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 16 {
		t.Errorf("hash %q is not 16 hex digits", a.Hash())
	}

	// Every algorithmic knob must move the hash; observability must not.
	seen := map[string]string{a.Hash(): "the base config"}
	for _, name := range Knobs() {
		v := a
		f := reflect.ValueOf(&v).Elem().FieldByName(name)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		default:
			t.Errorf("knob %s has kind %s; teach this test to change it", name, f.Kind())
			continue
		}
		h := v.Hash()
		if other, dup := seen[h]; dup {
			t.Errorf("changing knob %s leaves Config.Hash equal to %s's", name, other)
		}
		seen[h] = "knob " + name
	}

	obs := Config{K: 0.2, MaxIter: 100, NoTrace: true, OnIteration: func(IterStats) {}}
	if obs.Hash() != a.Hash() {
		t.Errorf("observability options changed the hash")
	}
}

func TestNewRunMeta(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "meta", Cells: 120, Nets: 150, Rows: 6, Seed: 7})
	start := time.Unix(1700000000, 0)
	m := NewRunMeta(nl, Config{}, 7, start)
	if m.Type != "meta" {
		t.Errorf("type %q", m.Type)
	}
	if m.Design != "meta" || m.Cells != len(nl.Cells) || m.Nets != len(nl.Nets) || m.Movable != nl.NumMovable() {
		t.Errorf("design identity: %+v", m)
	}
	if m.Seed != 7 || !m.Start.Equal(start) {
		t.Errorf("seed/start: %+v", m)
	}
	// Defaults are resolved before recording: the zero config runs K=0.2.
	if m.K != 0.2 || m.MaxIter != 300 {
		t.Errorf("unresolved defaults: K=%g MaxIter=%d", m.K, m.MaxIter)
	}
	if m.ConfigHash == "" {
		t.Error("empty config hash")
	}
	// The recorded hash equals the resolved config's hash, so an explicit
	// K=0.2 and the default produce identical metadata.
	explicit := NewRunMeta(nl, Config{K: 0.2, MaxIter: 300}, 7, start)
	if explicit.ConfigHash != m.ConfigHash {
		t.Errorf("default and explicit-default configs hash differently")
	}
}

// TestGapProxyInStats: every iteration reports a finite positive gap
// proxy, and the run's final value is consistent with its stop reason —
// a criterion stop means the proxy reached ≤ 1.
func TestGapProxyInStats(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "gap", Cells: 200, Nets: 260, Rows: 6, Seed: 3})
	var last IterStats
	seen := 0
	cfg := Config{MaxIter: 200, OnIteration: func(s IterStats) {
		seen++
		if math.IsNaN(s.GapProxy) || math.IsInf(s.GapProxy, 0) || s.GapProxy < 0 {
			t.Fatalf("iteration %d: gap proxy %v", s.Iter, s.GapProxy)
		}
		last = s
	}}
	p := New(nl, cfg)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no iterations observed")
	}
	if res.StopReason == StopCriterion && last.GapProxy > 1 {
		t.Errorf("criterion stop with gap proxy %g > 1", last.GapProxy)
	}
	// The proxy is the empty-square measure in units of the stopping
	// threshold; recompute it to pin the definition.
	want := last.EmptySquare / (4 * nl.AvgCellArea())
	if math.Abs(last.GapProxy-want) > 1e-9*math.Max(1, want) {
		t.Errorf("gap proxy %g, want EmptySquare/(4·avg) = %g", last.GapProxy, want)
	}
}
