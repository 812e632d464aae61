package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// sameFactor reports bitwise equality of two factors' numeric content
// (pattern equality is implied by construction from the same CSR).
func sameFactor(a, b *IC0Factor) bool {
	if a.n != b.n || len(a.vals) != len(b.vals) {
		return false
	}
	for k := range a.vals {
		if math.Float64bits(a.vals[k]) != math.Float64bits(b.vals[k]) {
			return false
		}
	}
	for i := range a.diag {
		if math.Float64bits(a.diag[i]) != math.Float64bits(b.diag[i]) {
			return false
		}
	}
	return true
}

// refactorMerge is the pre-work-row IC0 kernel, kept as the oracle
// Refactor must match bit for bit: each entry's dot product is a branchy
// two-pointer merge of row i against row j. It fills f's vals and diag
// exactly like Refactor and reports breakdown the same way.
func refactorMerge(f *IC0Factor, m *CSR) bool {
	mv := m.vals
	for k, s := range f.src {
		f.vals[k] = mv[s]
	}
	rp, cols, vals, diag := f.rowPtr, f.cols, f.vals, f.diag
	for i := 0; i < f.n; i++ {
		lo, hi := rp[i], rp[i+1]
		for k := lo; k < hi; k++ {
			j := cols[k]
			s := vals[k]
			// s -= Σ_{t<j} L[i][t]·L[j][t] over shared sparsity: row i's
			// entries before k all have column < j, and row j's entries
			// are strictly below j by construction.
			a, b := lo, rp[j]
			bHi := rp[j+1]
			for a < k && b < bHi {
				switch ca, cb := cols[a], cols[b]; {
				case ca == cb:
					s -= vals[a] * vals[b]
					a++
					b++
				case ca < cb:
					a++
				default:
					b++
				}
			}
			d := diag[j]
			if d == 0 {
				return false
			}
			vals[k] = s / d
		}
		var d float64
		if di := f.dsrc[i]; di >= 0 {
			d = mv[di]
		}
		for k := lo; k < hi; k++ {
			d -= vals[k] * vals[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		diag[i] = math.Sqrt(d)
	}
	return true
}

// matchesMergeOracle factors m with both kernels on fresh patterns and
// reports whether they agree: the same breakdown verdict, and on success
// bit-identical vals and diag.
func matchesMergeOracle(m *CSR) (agree, ok bool) {
	f, g := NewIC0Pattern(m), NewIC0Pattern(m)
	ok = f.Refactor(m)
	if ok != refactorMerge(g, m) {
		return false, ok
	}
	return !ok || sameFactor(f, g), ok
}

// workRowClean reports whether Refactor left the dense work row all zero.
func workRowClean(f *IC0Factor) bool {
	for _, v := range f.work {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

type spdSpring struct {
	i, j int
	w    float64
}

// randomSPDSprings draws a random diagonally dominant spring system whose
// Add sequence can be replayed with rescaled weights — the Symbolic.Refill
// contract needs the identical triplet shape on every fill.
func randomSPDSprings(rng *rand.Rand, n int) []spdSpring {
	var ss []spdSpring
	for k := 0; k < n*3; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		ss = append(ss, spdSpring{i, j, 0.1 + rng.Float64()})
	}
	return ss
}

// fillSPD replays the spring sequence into b with weights scaled by s,
// plus a unit anchor per row for strict diagonal dominance.
func fillSPD(b *Builder, n int, ss []spdSpring, s float64) {
	for _, sp := range ss {
		w := sp.w * s
		b.AddSym(sp.i, sp.j, -w)
		b.Add(sp.i, sp.i, w)
		b.Add(sp.j, sp.j, w)
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
}

func buildSPDSymbolic(rng *rand.Rand, n int) (*CSR, *Symbolic, *Builder, []spdSpring) {
	ss := randomSPDSprings(rng, n)
	b := NewBuilder(n)
	fillSPD(b, n, ss, 1)
	m, sym := b.BuildSymbolic()
	return m, sym, b, ss
}

func TestIC0RefactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		m, sym, b, ss := buildSPDSymbolic(rng, n)

		f := NewIC0Pattern(m)
		if !f.Refactor(m) {
			t.Fatalf("trial %d: refactor broke down on an SPD matrix", trial)
		}
		fresh := NewIC0(m)
		if fresh == nil {
			t.Fatalf("trial %d: fresh factor broke down", trial)
		}
		if !sameFactor(f, fresh) {
			t.Fatalf("trial %d: pattern+Refactor diverges from one-shot NewIC0", trial)
		}

		// Refill with scaled weights through the same symbolic pattern,
		// refactor the cached pattern, and compare against a factor built
		// from scratch on the refilled matrix: bit-identical.
		b.Reset()
		fillSPD(b, n, ss, 0.5+rng.Float64())
		if !sym.Refill(m, b) {
			t.Fatalf("trial %d: refill rejected", trial)
		}
		if !f.Refactor(m) {
			t.Fatalf("trial %d: refactor broke down after refill", trial)
		}
		fresh2 := NewIC0(m)
		if fresh2 == nil {
			t.Fatalf("trial %d: fresh factor broke down after refill", trial)
		}
		if !sameFactor(f, fresh2) {
			t.Fatalf("trial %d: refactor-vs-fresh-factor not bit-identical after refill", trial)
		}
	}
}

func TestIC0RefactorMatchesMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(200)
		m, _, _, _ := buildSPDSymbolic(rng, n)
		if agree, ok := matchesMergeOracle(m); !agree || !ok {
			t.Fatalf("trial %d (n=%d, SPD): agree=%v ok=%v", trial, n, agree, ok)
		}
	}

	// Random symmetric matrices with signed weights and a diagonal shift
	// around zero: some factor, some break down at various rows. Both
	// kernels must reach the same verdict, and the same bits on success.
	var factored, broken int
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(60)
		b := NewBuilder(n)
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				b.AddSym(i, j, rng.NormFloat64())
			}
		}
		shift := 6 * rng.Float64()
		for i := 0; i < n; i++ {
			b.Add(i, i, shift+rng.NormFloat64())
		}
		agree, ok := matchesMergeOracle(b.Build())
		if !agree {
			t.Fatalf("trial %d (n=%d, indefinite): work-row kernel diverges from the merge oracle (ok=%v)", trial, n, ok)
		}
		if ok {
			factored++
		} else {
			broken++
		}
	}
	if factored == 0 || broken == 0 {
		t.Fatalf("indefinite sweep exercised only one verdict: %d factored, %d broke down", factored, broken)
	}
}

// TestIC0WorkRowHygiene: breakdowns return from the middle of the matrix
// with a row scattered into the work row. The next Refactor on the same
// factor must still start from a zero work row, so every success after a
// failure is bit-equal to a fresh NewIC0.
func TestIC0WorkRowHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n := 150
	ss := randomSPDSprings(rng, n)
	b := NewBuilder(n)
	fillSPD(b, n, ss, 1)
	m, sym := b.BuildSymbolic()
	f := NewIC0Pattern(m)

	// mid is the row in the middle third with the most lower entries,
	// and spring hits its lowest column, so both failures leave several
	// work-row slots set when they return.
	mid := n / 3
	for i := n / 3; i < 2*n/3; i++ {
		if f.rowPtr[i+1]-f.rowPtr[i] > f.rowPtr[mid+1]-f.rowPtr[mid] {
			mid = i
		}
	}
	spring := -1
	for k, sp := range ss {
		if max(sp.i, sp.j) == mid && (spring < 0 || min(sp.i, sp.j) < min(ss[spring].i, ss[spring].j)) {
			spring = k
		}
	}
	if f.rowPtr[mid+1]-f.rowPtr[mid] < 3 || spring < 0 {
		t.Fatalf("row %d has too few lower entries for the test", mid)
	}

	// refill replays the spring sequence with spring's weight replaced by
	// w and an extra anchor on row mid.
	refill := func(w, anchor float64) {
		b.Reset()
		for k, sp := range ss {
			wk := sp.w
			if k == spring {
				wk = w
			}
			b.AddSym(sp.i, sp.j, -wk)
			b.Add(sp.i, sp.i, wk)
			b.Add(sp.j, sp.j, wk)
		}
		for i := 0; i < n; i++ {
			a := 1.0
			if i == mid {
				a += anchor
			}
			b.Add(i, i, a)
		}
		if !sym.Refill(m, b) {
			t.Fatal("refill rejected")
		}
	}
	step := func(what string, w, anchor float64, wantOK bool) {
		refill(w, anchor)
		if ok := f.Refactor(m); ok != wantOK {
			t.Fatalf("%s: Refactor ok=%v, want %v", what, ok, wantOK)
		}
		if !workRowClean(f) {
			t.Fatalf("%s: Refactor left the work row dirty", what)
		}
		if !wantOK {
			return
		}
		fresh := NewIC0(m)
		if fresh == nil {
			t.Fatalf("%s: fresh factor broke down", what)
		}
		if !sameFactor(f, fresh) {
			t.Fatalf("%s: factor is not bit-equal to a fresh NewIC0", what)
		}
	}
	w0 := ss[spring].w
	step("initial", w0, 0, true)
	// An infinite spring makes L[mid][lo] = −Inf/+Inf = NaN: the row
	// carries a non-finite entry through the rest of its columns and
	// breaks at its pivot.
	step("non-finite mid-row entry", math.Inf(1), 0, false)
	step("recovered from the non-finite row", 2*w0, 0, true)
	// A large negative anchor keeps every entry finite and breaks at
	// row mid's pivot.
	step("negative pivot", w0, -1e6, false)
	step("recovered from the negative pivot", 3*w0, 0, true)
}

func TestIC0RefactorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, _, _, _ := buildSPDSymbolic(rng, 200)
	f := NewIC0Pattern(m)
	allocs := testing.AllocsPerRun(20, func() {
		if !f.Refactor(m) {
			t.Fatal("refactor broke down")
		}
	})
	if allocs != 0 {
		t.Fatalf("Refactor allocates %.1f objects per call, want 0", allocs)
	}
}

func TestIC0SharedFactorMatchesPerSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 300
	m, _, _, _ := buildSPDSymbolic(rng, n)
	b1 := make([]float64, n)
	b2 := make([]float64, n)
	for i := range b1 {
		b1[i] = rng.NormFloat64()
		b2[i] = rng.NormFloat64()
	}

	solve := func(b []float64, f *IC0Factor) ([]float64, CGResult) {
		x := make([]float64, n)
		res, err := SolveCG(m, x, b, CGOptions{Tol: 1e-10, Precond: IC0, Factor: f})
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}

	f := NewIC0(m)
	if f == nil {
		t.Fatal("factorization broke down")
	}
	for _, rhs := range [][]float64{b1, b2} {
		want, wr := solve(rhs, nil) // per-solve internal factorization
		got, gr := solve(rhs, f)    // caller-prepared shared factor
		if wr.Precond != IC0 || gr.Precond != IC0 {
			t.Fatalf("effective preconditioners: %v %v, want ic0", wr.Precond, gr.Precond)
		}
		if wr.Iterations != gr.Iterations {
			t.Fatalf("iteration counts differ: %d vs %d", wr.Iterations, gr.Iterations)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("x[%d] differs bitwise: %v vs %v", i, want[i], got[i])
			}
		}
	}
}

func TestIC0RefactorBreakdownReported(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 0, 4)
	b.AddSym(1, 1, 4)
	b.AddSym(0, 1, 1)
	m, sym := b.BuildSymbolic()
	f := NewIC0Pattern(m)
	if !f.Refactor(m) {
		t.Fatal("refactor broke down on an SPD matrix")
	}

	// Refill the same pattern with indefinite values: Refactor must report
	// breakdown, matching NewIC0's nil on the same matrix.
	b.Reset()
	b.AddSym(0, 0, -4)
	b.AddSym(1, 1, -4)
	b.AddSym(0, 1, 1)
	if !sym.Refill(m, b) {
		t.Fatal("refill rejected")
	}
	if f.Refactor(m) {
		t.Fatal("refactor succeeded on a negative-definite matrix")
	}
	if NewIC0(m) != nil {
		t.Fatal("NewIC0 succeeded on a negative-definite matrix")
	}
}

func TestIC0MissingDiagonalIsBreakdown(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 1, 1) // no diagonal entries at all
	m := b.Build()
	if NewIC0(m) != nil {
		t.Fatal("NewIC0 succeeded with no stored diagonal")
	}
}

func TestPrecondResolve(t *testing.T) {
	if Auto.Resolve(AutoIC0Threshold-1) != Jacobi || Auto.Resolve(AutoIC0Threshold) != IC0 {
		t.Fatal("Auto threshold resolution wrong")
	}
	if Jacobi.Resolve(1<<20) != Jacobi || IC0.Resolve(1) != IC0 {
		t.Fatal("explicit preconditioners must resolve to themselves")
	}
	if Auto.String() != "auto" {
		t.Errorf("Auto tag %q", Auto.String())
	}
}

func TestAutoPrecondSmallSystemStaysJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 50
	m, _, _, _ := buildSPDSymbolic(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := SolveCG(m, x, b, CGOptions{Tol: 1e-10, Precond: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Precond != Jacobi {
		t.Fatalf("Auto on %d unknowns resolved to %v, want jacobi", n, res.Precond)
	}
}
