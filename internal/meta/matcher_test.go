package meta

import (
	"math/rand"
	"regexp"
	"sync"
	"testing"

	"nebula/internal/raceflag"
)

func valueWeight(r *Repository, word string, col ColumnRef) float64 {
	for _, m := range r.ValueMatches(word) {
		if m.Column == col {
			return m.Weight
		}
	}
	return 0
}

func conceptWeight(r *Repository, word string, el SchemaElement) float64 {
	for _, m := range r.ConceptMatches(word) {
		if m.Element == el {
			return m.Weight
		}
	}
	return 0
}

// TestMatcherInvalidation: each mutator of state the compiled matcher
// copies is visible to the very next match.
func TestMatcherInvalidation(t *testing.T) {
	family := ColumnRef{Table: "Gene", Column: "Family"}
	ptype := ColumnRef{Table: "Protein", Column: "PType"}
	familyEl := SchemaElement{Kind: ColumnElement, Table: "Gene", Column: "Family"}

	t.Run("AddConcept", func(t *testing.T) {
		db, _ := fixture(t)
		r := NewRepository(db, nil)
		if got := r.ConceptMatches("gene"); len(got) != 0 {
			t.Fatalf("empty repository matched %+v", got)
		}
		if err := r.AddConcept(&Concept{Name: "Gene", Table: "Gene", ReferencedBy: [][]string{{"GID"}}}); err != nil {
			t.Fatal(err)
		}
		if w := conceptWeight(r, "gene", SchemaElement{Kind: TableElement, Table: "Gene"}); w != WeightExactName {
			t.Errorf("after AddConcept: weight %v, want %v", w, WeightExactName)
		}
		if w := valueWeight(r, "JW0013", ColumnRef{Table: "Gene", Column: "GID"}); w == 0 {
			t.Error("after AddConcept: GID is not a value target")
		}
	})
	t.Run("AddEquivalentNames", func(t *testing.T) {
		_, r := fixture(t)
		if w := conceptWeight(r, "clan", familyEl); w != 0 {
			t.Fatalf("clan already matches Family with %v", w)
		}
		r.AddEquivalentNames("Family", "Gene Clan")
		if w := conceptWeight(r, "clan", familyEl); w != WeightEquivalentName {
			t.Errorf("after AddEquivalentNames: weight %v, want %v", w, WeightEquivalentName)
		}
	})
	t.Run("SetOntology", func(t *testing.T) {
		_, r := fixture(t)
		before := valueWeight(r, "motor", ptype)
		r.SetOntology(ptype, []string{"Motor"})
		after := valueWeight(r, "motor", ptype)
		if after != valueBase+valueEvidence || after == before {
			t.Errorf("SetOntology: weight %v -> %v, want %v", before, after, valueBase+valueEvidence)
		}
	})
	t.Run("SetPattern", func(t *testing.T) {
		_, r := fixture(t)
		before := valueWeight(r, "F77", family)
		if err := r.SetPattern(family, `F[0-9]+`); err != nil {
			t.Fatal(err)
		}
		after := valueWeight(r, "F77", family)
		if after != valueBase+valueEvidence || after == before {
			t.Errorf("SetPattern: weight %v -> %v, want %v", before, after, valueBase+valueEvidence)
		}
	})
	t.Run("SetSample", func(t *testing.T) {
		db, _ := fixture(t)
		r := NewRepository(db, nil)
		if err := r.AddConcept(&Concept{Name: "Gene Family", Table: "Gene", ReferencedBy: [][]string{{"Family"}}}); err != nil {
			t.Fatal(err)
		}
		before := valueWeight(r, "f9", family)
		r.SetSample(family, []string{"F9"})
		after := valueWeight(r, "f9", family)
		if after != valueBase+valueEvidence*sampleExactSim || after == before {
			t.Errorf("SetSample: weight %v -> %v", before, after)
		}
	})
	t.Run("DrawSample", func(t *testing.T) {
		db, _ := fixture(t)
		r := NewRepository(db, nil)
		if err := r.AddConcept(&Concept{Name: "Gene Family", Table: "Gene", ReferencedBy: [][]string{{"Family"}}}); err != nil {
			t.Fatal(err)
		}
		before := valueWeight(r, "f6", family)
		if err := r.DrawSample(family, 10, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
		after := valueWeight(r, "f6", family)
		if after != valueBase+valueEvidence*sampleExactSim || after == before {
			t.Errorf("DrawSample: weight %v -> %v", before, after)
		}
	})
	t.Run("Lexicon", func(t *testing.T) {
		// Not a mutator of the snapshot: the lexicon is consulted live.
		_, r := fixture(t)
		if w := conceptWeight(r, "kin", familyEl); w != 0 {
			t.Fatalf("kin already matches Family with %v", w)
		}
		r.Lexicon().AddGroup("family", "kin")
		if w := conceptWeight(r, "kin", familyEl); w != WeightSynonym {
			t.Errorf("after AddGroup: weight %v, want %v", w, WeightSynonym)
		}
	})
}

// TestMatcherConcurrentFirstBuild races readers on a repository whose
// matcher has not been compiled yet (run under -race).
func TestMatcherConcurrentFirstBuild(t *testing.T) {
	for round := 0; round < 20; round++ {
		_, r := fixture(t)
		wantC, wantV := r.ReferenceConceptMatches("genes"), r.ReferenceValueMatches("JW0013")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					if got := r.ConceptMatches("genes"); len(got) != len(wantC) || got[0] != wantC[0] {
						t.Errorf("ConceptMatches = %+v, want %+v", got, wantC)
						return
					}
					if got := r.ValueMatches("JW0013"); len(got) != len(wantV) || got[0] != wantV[0] {
						t.Errorf("ValueMatches = %+v, want %+v", got, wantV)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestSampleScoringAllocations: scoring a word against a column sample (the
// Jaro–Winkler path) still allocates nothing but the result slice.
func TestSampleScoringAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, _ := fixture(t)
	r := NewRepository(db, nil)
	if err := r.AddConcept(&Concept{Name: "Gene Family", Table: "Gene", ReferencedBy: [][]string{{"Family"}}}); err != nil {
		t.Fatal(err)
	}
	family := ColumnRef{Table: "Gene", Column: "Family"}
	r.SetSample(family, []string{"F1", "F6", "F3", "Fam-12", "Famille"})
	if w := valueWeight(r, "famile", family); w <= valueBase || w >= valueBase+valueEvidence {
		t.Fatalf("famile scored %v against the sample; want a partial similarity", w)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.ValueMatchesLowered("famile", "famile") }); allocs > 1 {
		t.Errorf("ValueMatches allocated %v times, want at most the result slice", allocs)
	}
}

// TestPatternFilterBounds pins what the prefilter derives from the
// workload's patterns and a few shapes: a filter that degrades to "admit
// everything" stays correct, and this test is what notices.
func TestPatternFilterBounds(t *testing.T) {
	for _, c := range []struct {
		pattern, prefix string
		lo, hi          int
	}{
		{`JW[0-9]{5}`, "JW", 7, 7},
		{`[a-z]{3}[A-Z]`, "", 4, 4},
		{`P[0-9]{5}`, "P", 6, 6},
		{`[A-Z][a-z]{4}in`, "", 7, 7},
		{`(?i)jw[0-9]+`, "", 3, -1},
		{`abc|abde`, "ab", 3, 4},
		{`(ab){2,3}c?`, "", 4, 7},
		{`\p{Greek}+`, "", 1, -1},
		{``, "", 0, 0},
		{`.*`, "", 0, -1},
	} {
		f := newPatternFilter(regexp.MustCompile("^(?:" + c.pattern + ")$"))
		if f.prefix != c.prefix || f.minRunes != c.lo || f.maxRunes != c.hi {
			t.Errorf("%q: prefix %q, runes %d..%d; want %q, %d..%d", c.pattern, f.prefix, f.minRunes, f.maxRunes, c.prefix, c.lo, c.hi)
		}
	}
}
