package sparse

// Test-only exports for the external sparse_test package, whose tests
// build matrices through qp (which imports sparse).

// RefactorMerge runs the merge-kernel oracle on f.
func RefactorMerge(f *IC0Factor, m *CSR) bool { return refactorMerge(f, m) }

// SameFactor reports bitwise equality of two factors' vals and diag.
func SameFactor(a, b *IC0Factor) bool { return sameFactor(a, b) }
