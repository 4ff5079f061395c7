package meta_test

import (
	"reflect"
	"strings"
	"testing"

	"nebula/internal/meta"
	"nebula/internal/textutil"
	"nebula/internal/workload"
)

// diffWords returns every distinct token of the dataset's annotations, plus
// words chosen to reach the branches annotation text rarely does: schema
// names and their plurals in several cases, equivalent-name components,
// lexicon synonyms, numbers, and non-ASCII spellings whose case folds change
// length or differ between ToLower and EqualFold.
func diffWords(ds *workload.Dataset) []string {
	seen := map[string]bool{}
	var out []string
	add := func(w string) {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, specs := range [][]*workload.AnnotationSpec{ds.Base, ds.Workload} {
		for _, spec := range specs {
			for _, tok := range textutil.Tokenize(spec.Ann.Body) {
				add(tok.Text)
			}
		}
	}
	for _, w := range []string{
		"gene", "Genes", "GENES", "protein", "Proteines", "family", "families", "Family",
		"gid", "GIDs", "pid", "name", "names", "pname", "ptype", "length", "Lengths",
		"id", "ID", "Id", "locus", "Locus", "cistron", "enzyme", "size", "label",
		"Gene ID", "gene_family", "class", "classes", "s", "es", "",
		"42", "-7", " 12 ", "3.5", "1e3", "JW00042", "jw00042", "P00012", "aabX",
		"İd", "ıd", "KID", "ſize", "genſ", "straße", "é", "\xff",
	} {
		add(w)
	}
	return out
}

// richMeta is the workload's NebulaMeta plus the sources it leaves unused: a
// multi-word concept whose name differs from its table, an int target
// column, an explicit sample, multi-word and mixed-case equivalents, and a
// second concept over the same table spelled in another case.
func richMeta(t *testing.T, ds *workload.Dataset) *meta.Repository {
	t.Helper()
	repo := ds.Meta
	for _, c := range []*meta.Concept{
		{Name: "Gene Family", Table: "Gene", ReferencedBy: [][]string{{"Family"}, {"Length", "Name"}}},
		{Name: "gene_locus", Table: "gene", ReferencedBy: [][]string{{"gid"}}},
	} {
		if err := repo.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	repo.AddEquivalentNames("Family", "Gene Group", "CLADE")
	repo.AddEquivalentNames("Length", "ſize")
	repo.SetSample(meta.ColumnRef{Table: "Gene", Column: "Family"}, []string{"F1", "f22", "Fam-İ", "Straße"})
	return repo
}

func diffMatchers(t *testing.T, repo *meta.Repository, words []string) {
	t.Helper()
	matched := 0
	for _, w := range words {
		wantC, gotC := repo.ReferenceConceptMatches(w), repo.ConceptMatches(w)
		if !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("ConceptMatches(%q) = %+v, reference %+v", w, gotC, wantC)
		}
		wantV, gotV := repo.ReferenceValueMatches(w), repo.ValueMatches(w)
		if !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("ValueMatches(%q) = %+v, reference %+v", w, gotV, wantV)
		}
		lower := strings.ToLower(w)
		if got := repo.ConceptMatchesLowered(w, lower); !reflect.DeepEqual(got, wantC) {
			t.Fatalf("ConceptMatchesLowered(%q) = %+v, reference %+v", w, got, wantC)
		}
		if got := repo.ValueMatchesLowered(w, lower); !reflect.DeepEqual(got, wantV) {
			t.Fatalf("ValueMatchesLowered(%q) = %+v, reference %+v", w, got, wantV)
		}
		matched += len(wantC)
	}
	if matched == 0 {
		t.Fatal("no word matched any concept: the comparison proves nothing")
	}
}

// TestCompiledMatcherMatchesReference holds the compiled matcher against
// the per-call implementation it replaced, word by word.
func TestCompiledMatcherMatchesReference(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  workload.Config
	}{{"tiny", workload.TinyConfig(42)}, {"small", workload.SmallConfig(42)}} {
		t.Run(cfg.name, func(t *testing.T) {
			ds, err := workload.Generate(cfg.cfg)
			if err != nil {
				t.Fatal(err)
			}
			words := diffWords(ds)
			t.Logf("%d distinct words", len(words))
			diffMatchers(t, ds.Meta, words)
			diffMatchers(t, richMeta(t, ds), words)
		})
	}
}
