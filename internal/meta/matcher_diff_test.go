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

// prefilterPatterns are the workload's four column patterns and patterns
// that reach the other branches of the prefilter's bounds: case folding
// (no literal prefix), alternation of unequal lengths, Unicode classes,
// unbounded and optional repeats, the empty pattern, and nested repeats.
var prefilterPatterns = []string{
	`JW[0-9]{5}`, `[a-z]{3}[A-Z]`, `P[0-9]{5}`, `[A-Z][a-z]{4}in`,
	`(?i)jw[0-9]{5}`, `(?i)k{2}`, `JW[0-9]{5}|P[0-9]{3,}|x`, `ab(c|de)?`,
	`\p{Greek}+`, `[\p{Lu}][\p{Ll}]*`, `\pL{2,3}\d`, `.*`, `.+x`, ``, `(?s).`,
	`(ab){2,3}c?`, `((a|bc){2}){1,2}`, `[^a]{2}`, `a{0}b`, `\bG\w*`, `(?:)*x+`,
}

// prefilterWords are the corpus tokens plus words of every length around
// the patterns' bounds, in several scripts, with invalid bytes.
func prefilterWords(ds *workload.Dataset) []string {
	words := diffWords(ds)
	for _, w := range []string{
		"JW0001", "JW00001", "JW000001", "jw00001", "Jw00001", "P00001", "P0001", "P123",
		"abcD", "ABCD", "Actin", "Myosin", "Kinasein", "kk", "KK", "Kk", "kK",
		"ab", "abc", "abde", "abx", "αβγ", "Αβγ", "ΑΒΓ", "Éa", "Éé1", "ab1", "x", "xx",
		"ababc", "abababc", "aa", "abcbc", "bcbca", "b", "Gene", "G", "\xffx", "\xff\xff", "J\xffW",
	} {
		words = append(words, w)
	}
	return words
}

func checkPrefilter(t *testing.T, pattern string, words []string) (rejected int) {
	t.Helper()
	admit, err := meta.PatternPrefilter(pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		admitted, matched := admit(w)
		if matched && !admitted {
			t.Fatalf("pattern %q: prefilter rejects %q, which the regexp matches", pattern, w)
		}
		if !admitted {
			rejected++
		}
	}
	return rejected
}

// TestPatternPrefilterAdmitsEveryMatch holds the matcher's pattern
// prefilter to its one promise, that it never rejects a word the pattern
// matches, over every token of a Small corpus.
func TestPatternPrefilterAdmitsEveryMatch(t *testing.T) {
	ds, err := workload.Generate(workload.SmallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	words := prefilterWords(ds)
	rejected := 0
	for _, p := range prefilterPatterns {
		rejected += checkPrefilter(t, p, words)
	}
	if rejected == 0 {
		t.Fatal("the prefilter rejected no word: the test proves nothing")
	}
}

// FuzzPatternPrefilter holds the prefilter to the regexp on fuzzed words.
func FuzzPatternPrefilter(f *testing.F) {
	for _, w := range []string{"JW00042", "jw00042", "abcD", "Actin", "αβγ", "ΑΒΓ", "", "\xff", "K", "ababc"} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, word string) {
		for _, p := range prefilterPatterns {
			checkPrefilter(t, p, []string{word})
		}
	})
}
