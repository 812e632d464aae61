package sparse_test

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netgen"
	"repro/internal/qp"
	"repro/internal/sparse"
)

// netgenClique assembles the linearized clique matrix of a netgen design
// with cells scattered at random: the matrix the fast-mode placer factors
// on every transformation, at the density the paper's net model gives.
func netgenClique(cells int) *sparse.CSR {
	rows := int(math.Sqrt(float64(cells)) / 3)
	nl := netgen.Generate(netgen.Config{
		Name: fmt.Sprintf("ic0-%d", cells), Cells: cells, Nets: cells * 4 / 3, Rows: rows, Seed: 1,
	})
	netgen.ScatterRandom(nl, 2)
	return qp.Build(nl, qp.Options{Linearize: true}).Matrix()
}

func TestIC0RefactorMatchesMergeOracleNetgen(t *testing.T) {
	for _, cells := range []int{2000, 5500} {
		m := netgenClique(cells)
		f, oracle := sparse.NewIC0Pattern(m), sparse.NewIC0Pattern(m)
		if !f.Refactor(m) {
			t.Fatalf("%d cells: Refactor broke down", cells)
		}
		if !sparse.RefactorMerge(oracle, m) {
			t.Fatalf("%d cells: merge oracle broke down", cells)
		}
		if !sparse.SameFactor(f, oracle) {
			t.Fatalf("%d cells: Refactor is not bit-identical to the merge oracle", cells)
		}
	}
}

// ic0Cells lists the design sizes BenchmarkIC0Refactor factors. The
// default keeps to sizes where Auto picks IC0 and stays cheap enough for
// a -benchtime=1x smoke run; pass e.g. -ic0-cells=2000,5500,10000,50000
// for the full ladder.
var ic0Cells = flag.String("ic0-cells", "5500,10000", "comma-separated cell counts for BenchmarkIC0Refactor")

// BenchmarkIC0Refactor times one numeric refactorization of the fast-mode
// clique matrix, with the work-row kernel and with the merge oracle it
// replaced, so one run gives the before and after.
func BenchmarkIC0Refactor(b *testing.B) {
	kernels := []struct {
		name     string
		refactor func(f *sparse.IC0Factor, m *sparse.CSR) bool
	}{
		{"workrow", (*sparse.IC0Factor).Refactor},
		{"merge", sparse.RefactorMerge},
	}
	for _, field := range strings.Split(*ic0Cells, ",") {
		cells, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			b.Fatalf("bad -ic0-cells entry %q", field)
		}
		m := netgenClique(cells)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("cells=%d/kernel=%s", cells, k.name), func(b *testing.B) {
				f := sparse.NewIC0Pattern(m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !k.refactor(f, m) {
						b.Fatal("refactor broke down")
					}
				}
				b.ReportMetric(float64(m.NNZ()), "nnz")
			})
		}
	}
}
