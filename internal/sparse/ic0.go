package sparse

import "math"

// IC0Factor is a zero-fill incomplete Cholesky factorization: L has exactly
// the sparsity of the matrix's lower triangle and L·Lᵀ ≈ M. GORDIAN-era
// analytical placers ran conjugate gradients with exactly this
// preconditioner (ICCG); it typically halves the iteration count of Jacobi
// on placement matrices at the cost of a sequential triangular solve per
// iteration.
//
// The factor is split symbolically/numerically the same way Builder/
// Symbolic split matrix assembly: NewIC0Pattern records the strict-lower
// pattern and the value-source mapping once, and Refactor re-derives the
// numeric factor from the matrix's current values with no allocation and no
// position lookups. Refactor scatters the row being factored into a dense
// work row, so each dot product walks only the earlier row it pairs with.
// Placement matrices are refilled (same pattern, new spring weights) on
// every transformation, so the steady state is one Refactor per assembly.
type IC0Factor struct {
	n      int
	rowPtr []int32
	cols   []int32 // column indices, strictly below the diagonal, ascending
	vals   []float64
	diag   []float64 // L's diagonal entries

	// src maps factor entry k to the matrix value index it refills from;
	// dsrc maps row i to its diagonal's matrix value index (-1 when the
	// row has no stored diagonal, which Refactor reports as a breakdown).
	src  []int32
	dsrc []int32

	// work holds the finished entries of the row Refactor is factoring,
	// indexed by column. It is zero everywhere else, between calls too.
	work []float64
}

// NewIC0Pattern records the strict-lower-triangle pattern of m and the
// value-source mapping Refactor scatters from. The pattern stays valid for
// any matrix refilled through the same sparse.Symbolic (identical rowPtr and
// cols); the values are free to change.
func NewIC0Pattern(m *CSR) *IC0Factor {
	n := m.N()
	f := &IC0Factor{
		n:      n,
		rowPtr: make([]int32, n+1),
		diag:   make([]float64, n),
		dsrc:   make([]int32, n),
		work:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.dsrc[i] = -1
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			switch c := m.cols[k]; {
			case c < i:
				f.cols = append(f.cols, int32(c))
				f.src = append(f.src, int32(k))
			case c == i:
				f.dsrc[i] = int32(k)
			}
		}
		f.rowPtr[i+1] = int32(len(f.cols))
	}
	f.vals = make([]float64, len(f.cols))
	return f
}

// NewIC0 factors m in one shot. Returns nil when the factorization breaks
// down (a non-positive pivot), in which case the caller should fall back to
// Jacobi preconditioning.
func NewIC0(m *CSR) *IC0Factor {
	f := NewIC0Pattern(m)
	if !f.Refactor(m) {
		return nil
	}
	return f
}

// Refactor recomputes the numeric factor from m's current values through
// the recorded pattern. m must have the exact sparsity NewIC0Pattern saw
// (the Symbolic.Refill contract); only the values may differ. It reports
// false on breakdown (a non-positive or NaN pivot) — the factor's values
// are then unspecified and the caller must fall back to Jacobi until the
// next refill. Refactor allocates nothing.
//
// Entry L[i][j] is A[i][j] − Σ_t L[i][t]·L[j][t] over the columns t < j the
// two rows share, divided by L[j][j]. Row i's finished entries sit in the
// dense work row, so the sum walks row j alone: a column row i lacks reads
// a zero slot. The result is bit-identical to intersecting the two sorted
// rows, because
//   - shared columns are subtracted in the same ascending order;
//   - an unshared column subtracts 0·x = ±0, where x is an entry of a row
//     that passed its pivot check and is therefore finite (an infinite or
//     NaN entry makes its own row's pivot -Inf or NaN);
//   - s − (±0) = s unless s is −0, and s never is: a matrix value is a sum
//     that starts from +0 (Build and Symbolic.Refill), and under
//     round-to-nearest a difference is −0 only when its minuend is.
func (f *IC0Factor) Refactor(m *CSR) bool {
	// Load the raw strict-lower values; row i's raw values are consumed
	// exactly when row i is eliminated, and rows j < i already hold L.
	mv := m.vals
	for k, s := range f.src {
		f.vals[k] = mv[s]
	}
	rp, cols, vals, diag, w := f.rowPtr, f.cols, f.vals, f.diag, f.work
	for i := 0; i < f.n; i++ {
		lo, hi := rp[i], rp[i+1]
		// Off-diagonal entries of row i, in ascending column order. Row j's
		// columns are all below j, so w holds exactly row i's entries
		// before k when row j reads it.
		for k := lo; k < hi; k++ {
			j := cols[k]
			s := vals[k]
			jc, jv := cols[rp[j]:rp[j+1]], vals[rp[j]:rp[j+1]]
			jv = jv[:len(jc)] // same length: drops jv's bounds check
			for b, c := range jc {
				s -= w[c] * jv[b]
			}
			// diag[j] > 0: row j passed its pivot check.
			v := s / diag[j]
			vals[k] = v
			w[j] = v
		}
		// Diagonal pivot; clearing row i's slots here leaves the work row
		// zero on the breakdown return as well.
		var d float64
		if di := f.dsrc[i]; di >= 0 {
			d = mv[di]
		}
		for k := lo; k < hi; k++ {
			d -= vals[k] * vals[k]
			w[cols[k]] = 0
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		diag[i] = math.Sqrt(d)
	}
	return true
}

// N returns the factored dimension.
func (f *IC0Factor) N() int { return f.n }

// Apply solves L·Lᵀ·z = r (the preconditioner application). It only reads
// the factor, so concurrent solves (the x/y axis pair) may share one.
func (f *IC0Factor) Apply(z, r []float64) {
	rp, cols, vals, diag := f.rowPtr, f.cols, f.vals, f.diag
	// Forward: L·y = r.
	for i := 0; i < f.n; i++ {
		s := r[i]
		for k := rp[i]; k < rp[i+1]; k++ {
			s -= vals[k] * z[cols[k]]
		}
		z[i] = s / diag[i]
	}
	// Backward: Lᵀ·z = y.
	for i := f.n - 1; i >= 0; i-- {
		z[i] /= diag[i]
		for k := rp[i]; k < rp[i+1]; k++ {
			z[cols[k]] -= vals[k] * z[i]
		}
	}
}
