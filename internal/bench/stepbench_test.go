package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestStepBenchReadsCheckedInBaseline: the CI step gate reads the
// repository's BENCH_step.json, written when rows also carried a cold run
// and "*/fft" variants. The decoder must skip those stale entries and the
// gate must still find the hot 10k-cell row.
func TestStepBenchReadsCheckedInBaseline(t *testing.T) {
	f, err := os.Open("../../BENCH_step.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := ReadStepBench(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStepRegression(doc, doc, 10000, 0.20); err != nil {
		t.Fatalf("baseline against itself: %v", err)
	}
	var out bytes.Buffer
	PrintStepBench(&out, doc)
	if !strings.Contains(out.String(), "hot") {
		t.Errorf("printed table has no hot row:\n%s", out.String())
	}
}
