package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// readBaseline decodes the repository's checked-in BENCH_step.json.
func readBaseline(t *testing.T) StepBench {
	t.Helper()
	f, err := os.Open("../../BENCH_step.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := ReadStepBench(f)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestStepBenchReadsCheckedInBaseline: the CI step gate reads the
// repository's BENCH_step.json and must find the hot 10k-cell row in it.
func TestStepBenchReadsCheckedInBaseline(t *testing.T) {
	doc := readBaseline(t)
	if err := CheckStepRegression(doc, doc, 10000, 0.20); err != nil {
		t.Fatalf("baseline against itself: %v", err)
	}
	var out bytes.Buffer
	PrintStepBench(&out, doc)
	if !strings.Contains(out.String(), "hot") {
		t.Errorf("printed table has no hot row:\n%s", out.String())
	}
}

// TestCheckStepRegressionGates: the gate compares like with like. A run at
// a different max_iter than the baseline is an error whatever its timing,
// a +25% step time against the +20% budget fails, and a +10% one passes.
func TestCheckStepRegressionGates(t *testing.T) {
	base := readBaseline(t)
	// scaled copies the baseline with the 10k-cell hot step time scaled.
	scaled := func(f float64) StepBench {
		cur := base
		cur.Rows = append([]StepRow(nil), base.Rows...)
		for i := range cur.Rows {
			if cur.Rows[i].Cells == 10000 {
				cur.Rows[i].Hot.Phases.Step = int64(float64(cur.Rows[i].Hot.Phases.Step) * f)
			}
		}
		return cur
	}
	if err := CheckStepRegression(scaled(1.10), base, 10000, 0.20); err != nil {
		t.Errorf("+10%% step time failed the +20%% gate: %v", err)
	}
	err := CheckStepRegression(scaled(1.25), base, 10000, 0.20)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("+25%% step time passed the +20%% gate (err %v)", err)
	}
	short := scaled(1)
	short.MaxIter = base.MaxIter / 5
	err = CheckStepRegression(short, base, 10000, 0.20)
	if err == nil || !strings.Contains(err.Error(), "max_iter") {
		t.Errorf("a %d-iteration run compared against a %d-iteration baseline (err %v)", short.MaxIter, base.MaxIter, err)
	}
}
