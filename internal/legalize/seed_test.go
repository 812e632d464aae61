package legalize

import (
	"math/rand"
	"testing"

	"repro/internal/netgen"
)

// TestLegalizeMatchingOverfillSeed pins a scattered netgen seed on which a
// matching pass left a row segment overfull after the last detailed round,
// and the re-clump pushed cell 56 past the region's right edge (x 88.25 to
// 90.44 against an outline ending at 90.42). Set up as in
// TestLegalizeInvariantsProperty.
func TestLegalizeMatchingOverfillSeed(t *testing.T) {
	const seed = 3073577632075469178
	rng := rand.New(rand.NewSource(seed))
	nl := netgen.Generate(netgen.Config{
		Name:   "prop",
		Cells:  30 + rng.Intn(150),
		Nets:   40 + rng.Intn(180),
		Rows:   3 + rng.Intn(10),
		Blocks: rng.Intn(3),
		Seed:   seed,
	})
	netgen.ScatterRandom(nl, seed+7)
	plain := nl.Clone()
	rp, err := Legalize(plain, Options{DetailedPasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Legalize(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if !c.Fixed && !nl.Region.Outline.ContainsRect(c.Rect().Expand(-1e-9)) {
			t.Errorf("cell %d at %v lies outside the outline %v", i, c.Rect(), nl.Region.Outline)
		}
	}
	if ov := nl.OverlapArea(); ov > 1e-6 {
		t.Errorf("overlap %g", ov)
	}
	if ri.HPWLAfter > rp.HPWLAfter*1.01 {
		t.Errorf("detailed passes worsened HPWL %g -> %g", rp.HPWLAfter, ri.HPWLAfter)
	}
}
