package placement_test

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	placement "repro"
)

// TestMetricFamilies enables every registration site on one registry (the
// solver instruments, a Server, and a placement run with Metrics) and
// holds each family to the exposition rules: a legal Prometheus name, a
// _total suffix on counters, help text, one kind per family, and no
// family named like the _bucket/_sum/_count/_pNN families the exporter
// derives from a histogram at scrape time.
func TestMetricFamilies(t *testing.T) {
	reg := placement.NewMetricsRegistry()
	placement.EnableSolverMetrics(reg)
	t.Cleanup(func() { placement.EnableSolverMetrics(nil) })
	srv := placement.NewServer(placement.ServeConfig{Workers: 1, Metrics: reg})
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	nl, _ := e2eNetlist(t, 120, 5)
	if _, err := placement.Global(nl, placement.Config{MaxIter: 3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Counters   map[string]json.RawMessage `json:"counters"`
		Gauges     map[string]json.RawMessage `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	var js, prom bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]string{} // family -> kind
	legal := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for kind, names := range map[string]map[string]json.RawMessage{
		"counter": doc.Counters, "gauge": doc.Gauges, "histogram": doc.Histograms,
	} {
		for name := range names {
			fam, _, _ := strings.Cut(name, "{")
			if k, ok := kinds[fam]; ok && k != kind {
				t.Errorf("family %s is registered both as a %s and as a %s", fam, k, kind)
			}
			kinds[fam] = kind
			if !legal.MatchString(fam) {
				t.Errorf("family %q is not a legal Prometheus name (want %s)", fam, legal)
			}
			if kind == "counter" && !strings.HasSuffix(fam, "_total") {
				t.Errorf("counter family %q does not end in _total", fam)
			}
			if !strings.Contains(prom.String(), "# HELP "+fam+" ") {
				t.Errorf("family %s has no help text", fam)
			}
		}
	}
	if len(kinds) < 10 {
		t.Fatalf("only %d families registered; a registration site went missing: %v", len(kinds), kinds)
	}
	for fam, kind := range kinds {
		if kind != "histogram" {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_p50", "_p95", "_p99"} {
			if k, ok := kinds[fam+suffix]; ok {
				t.Errorf("%s family %s collides with a family derived from histogram %s", k, fam+suffix, fam)
			}
		}
	}
}
