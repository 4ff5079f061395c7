package sigmap

import (
	"strings"
	"testing"

	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/relational"
	"nebula/internal/textutil"
)

// fixture builds the running-example catalog and metadata of Figures 1-4.
func fixture(t testing.TB) *meta.Repository {
	t.Helper()
	db := relational.NewDatabase()
	gene := &relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString, Indexed: true},
			{Name: "Name", Type: relational.TypeString, Indexed: true},
			{Name: "Length", Type: relational.TypeInt},
			{Name: "Family", Type: relational.TypeString, Indexed: true},
		},
		PrimaryKey: "GID",
	}
	protein := &relational.Schema{
		Name: "Protein",
		Columns: []relational.Column{
			{Name: "PID", Type: relational.TypeString, Indexed: true},
			{Name: "PName", Type: relational.TypeString, Indexed: true},
			{Name: "PType", Type: relational.TypeString},
		},
		PrimaryKey: "PID",
	}
	for _, s := range []*relational.Schema{gene, protein} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	gt := db.MustTable("Gene")
	for _, g := range [][]relational.Value{
		{relational.String("JW0013"), relational.String("grpC"), relational.Int(1130), relational.String("F1")},
		{relational.String("JW0014"), relational.String("groP"), relational.Int(1916), relational.String("F6")},
		{relational.String("JW0019"), relational.String("yaaB"), relational.Int(905), relational.String("F3")},
	} {
		if _, err := gt.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	pt := db.MustTable("Protein")
	// Several proteins over two types, so PType's selectivity is a
	// realistic category ratio while PName stays unique.
	for _, p := range [][]relational.Value{
		{relational.String("P00001"), relational.String("G-Actin"), relational.String("structural")},
		{relational.String("P00002"), relational.String("Myosin"), relational.String("motor")},
		{relational.String("P00003"), relational.String("Keratin"), relational.String("structural")},
		{relational.String("P00004"), relational.String("Dynein"), relational.String("motor")},
		{relational.String("P00005"), relational.String("Tubulin"), relational.String("structural")},
		{relational.String("P00006"), relational.String("Kinesin"), relational.String("motor")},
	} {
		if _, err := pt.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	repo := meta.NewRepository(db, nil)
	for _, c := range []*meta.Concept{
		{Name: "Gene", Table: "Gene", ReferencedBy: [][]string{{"GID"}, {"Name"}}},
		{Name: "Protein", Table: "Protein", ReferencedBy: [][]string{{"PID"}, {"PName", "PType"}}},
	} {
		if err := repo.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	repo.AddEquivalentNames("GID", "Gene ID")
	if err := repo.SetPattern(meta.ColumnRef{Table: "Gene", Column: "GID"}, `JW[0-9]{4}`); err != nil {
		t.Fatal(err)
	}
	if err := repo.SetPattern(meta.ColumnRef{Table: "Gene", Column: "Name"}, `[a-z]{3}[A-Z]`); err != nil {
		t.Fatal(err)
	}
	if err := repo.SetPattern(meta.ColumnRef{Table: "Protein", Column: "PID"}, `P[0-9]{5}`); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestConceptMapEmphasizesConceptWords(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	tokens := textutil.Tokenize("this gene is near protein G-Actin")
	cm := g.ConceptMap(tokens)
	var words []string
	for _, e := range cm {
		words = append(words, e.Token.Lower)
	}
	joined := strings.Join(words, " ")
	if !strings.Contains(joined, "gene") || !strings.Contains(joined, "protein") {
		t.Errorf("concept map = %v", words)
	}
	for _, e := range cm {
		if e.Token.Lower == "near" || e.Token.Lower == "this" {
			t.Errorf("noise word emphasized: %v", e.Token)
		}
	}
}

func TestValueMapEmphasizesIdentifiers(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	tokens := textutil.Tokenize("gene JW0014 correlated with grpC")
	vm := g.ValueMap(tokens)
	emphasized := map[string]bool{}
	for _, e := range vm {
		emphasized[e.Token.Text] = true
	}
	if !emphasized["JW0014"] {
		t.Errorf("JW0014 not in value map: %v", emphasized)
	}
	if !emphasized["grpC"] {
		t.Errorf("grpC not in value map: %v", emphasized)
	}
	if emphasized["correlated"] {
		t.Error("plain word emphasized in value map")
	}
}

func TestEpsilonCutoffMonotone(t *testing.T) {
	repo := fixture(t)
	text := "From the exp, it seems this gene is correlated to JW0014 of grpC"
	sizes := map[float64]int{}
	for _, eps := range []float64{0.4, 0.6, 0.8} {
		g := NewGenerator(repo, eps)
		tokens := textutil.Tokenize(text)
		cm := g.ConceptMap(tokens)
		vm := g.ValueMap(tokens)
		sizes[eps] = len(cm) + len(vm)
	}
	if sizes[0.4] < sizes[0.6] || sizes[0.6] < sizes[0.8] {
		t.Errorf("emphasized counts not monotone in ε: %v", sizes)
	}
}

func TestOverlayMergesMaps(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	tokens := textutil.Tokenize("gene name grpC")
	cm := g.ConceptMap(tokens)
	vm := g.ValueMap(tokens)
	ctx := Overlay(tokens, cm, vm)
	if len(ctx.Entries) < 2 {
		t.Fatalf("overlay entries = %d", len(ctx.Entries))
	}
	// Entries must be cloned: adjusting the overlay must not mutate the
	// source maps.
	for i, e := range ctx.Entries {
		if src, ok := cm[i]; ok && len(e.Mappings) > 0 && len(src.Mappings) > 0 {
			e.Mappings[0].Weight = 123
			if src.Mappings[0].Weight == 123 {
				t.Fatal("overlay aliases source mappings")
			}
			break
		}
	}
}

func TestContextAdjustmentRewardsType2(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	// "gene JW0014" — table + value within range: Type-2 reward for both.
	tokens := textutil.Tokenize("gene JW0014")
	ctx := Overlay(tokens, g.ConceptMap(tokens), g.ValueMap(tokens))
	before := map[string]float64{}
	for i, e := range ctx.Entries {
		before[e.Token.Lower] = e.Mappings[0].Weight
		_ = i
	}
	g.ContextBasedAdjustment(ctx)
	for _, e := range ctx.Entries {
		if e.Best().Weight <= before[e.Token.Lower] {
			t.Errorf("%s not rewarded: %f <= %f", e.Token.Lower, e.Best().Weight, before[e.Token.Lower])
		}
	}
}

func TestContextAdjustmentType1BeatsType2(t *testing.T) {
	g := NewGenerator(fixture(t), 0.5)
	// Type-1: "gene id JW0014" (table + column + value).
	t1 := textutil.Tokenize("gene id JW0014")
	ctx1 := Overlay(t1, g.ConceptMap(t1), g.ValueMap(t1))
	g.ContextBasedAdjustment(ctx1)
	// Type-2: "gene JW0014".
	t2 := textutil.Tokenize("gene JW0014")
	ctx2 := Overlay(t2, g.ConceptMap(t2), g.ValueMap(t2))
	g.ContextBasedAdjustment(ctx2)

	w1 := valueWeight(t, ctx1, "jw0014")
	w2 := valueWeight(t, ctx2, "jw0014")
	if w1 <= w2 {
		t.Errorf("Type-1 reward %f should exceed Type-2 reward %f", w1, w2)
	}
}

func valueWeight(t *testing.T, cm *ContextMap, lower string) float64 {
	t.Helper()
	for _, e := range cm.Entries {
		if e.Token.Lower == lower {
			for _, m := range e.Mappings {
				if m.Kind == KindValue {
					return m.Weight
				}
			}
		}
	}
	t.Fatalf("no value mapping for %s", lower)
	return 0
}

func TestContextAdjustmentRespectsAlpha(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	g.Alpha = 2
	// The concept is 4 words away from the value: out of range.
	tokens := textutil.Tokenize("gene one two three four JW0014")
	ctx := Overlay(tokens, g.ConceptMap(tokens), g.ValueMap(tokens))
	before := valueWeight(t, ctx, "jw0014")
	g.ContextBasedAdjustment(ctx)
	after := valueWeight(t, ctx, "jw0014")
	if after != before {
		t.Errorf("out-of-range reward applied: %f -> %f", before, after)
	}
}

func TestGenerateAliceComment(t *testing.T) {
	// Alice's comment (Figure 1): one in-range reference and one backward
	// reference sharing the earlier "gene" concept.
	g := NewGenerator(fixture(t), 0.6)
	queries, stats := g.Generate("From the exp, it seems this gene is correlated to JW0014 of grpC")
	if len(queries) != 2 {
		t.Fatalf("queries = %v", queries)
	}
	found := map[string]bool{}
	for _, q := range queries {
		if q.Weight <= 0 || q.Weight > 1 {
			t.Errorf("weight out of range: %v", q)
		}
		var concept, value string
		for _, k := range q.Keywords {
			switch k.Role {
			case keyword.RoleTable, keyword.RoleColumn:
				concept = k.Text
			case keyword.RoleValue:
				value = k.Text
			}
		}
		if concept == "" || value == "" {
			t.Errorf("query missing roles: %v", q)
		}
		found[value] = true
	}
	if !found["JW0014"] || !found["grpC"] {
		t.Errorf("expected embedded references JW0014 and grpC: %v", found)
	}
	if stats.Queries != 2 || stats.Tokens == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestGenerateBackwardSpecialCase(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	// grpC is far beyond α words from "gene": only the backward search can
	// link them.
	queries, _ := g.Generate("gene studies were very long and detailed about many things including grpC")
	if len(queries) != 1 {
		t.Fatalf("queries = %v", queries)
	}
	var hasGene, hasGrpC bool
	for _, k := range queries[0].Keywords {
		if k.Text == "gene" {
			hasGene = true
		}
		if k.Text == "grpC" {
			hasGrpC = true
		}
	}
	if !hasGene || !hasGrpC {
		t.Errorf("backward query = %v", queries[0])
	}
}

func TestGenerateIgnoresOrphanValues(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	// An identifier with no concept keyword anywhere: ignored.
	queries, _ := g.Generate("we observed JW0014 yesterday")
	if len(queries) != 0 {
		t.Errorf("orphan value produced queries: %v", queries)
	}
}

func TestGenerateDeduplicates(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	queries, _ := g.Generate("gene JW0014 and again gene JW0014")
	if len(queries) != 1 {
		t.Errorf("duplicate queries not merged: %v", queries)
	}
}

func TestGenerateNormalizesWeights(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	queries, _ := g.Generate("gene id JW0014 also gene grpC and protein P00001")
	if len(queries) < 2 {
		t.Fatalf("queries = %v", queries)
	}
	maxW := 0.0
	for _, q := range queries {
		if q.Weight <= 0 || q.Weight > 1 {
			t.Errorf("weight out of range: %v", q)
		}
		if q.Weight > maxW {
			maxW = q.Weight
		}
	}
	if maxW != 1 {
		t.Errorf("max weight = %f, want 1 after normalization", maxW)
	}
}

func TestGenerateType1Query(t *testing.T) {
	g := NewGenerator(fixture(t), 0.5)
	queries, _ := g.Generate("the gene id JW0019 was interesting")
	if len(queries) == 0 {
		t.Fatal("no queries")
	}
	// The strongest query should be the Type-1 triple.
	best := queries[0]
	for _, q := range queries {
		if q.Weight > best.Weight {
			best = q
		}
	}
	if len(best.Keywords) != 3 {
		t.Errorf("best query is not a Type-1 triple: %v", best)
	}
}

func TestGenerateCombinationReference(t *testing.T) {
	repo := fixture(t)
	// The Protein concept declares the {PName, PType} combination. Give
	// PType an ontology so "structural" maps to its value domain.
	repo.SetOntology(meta.ColumnRef{Table: "Protein", Column: "PType"},
		[]string{"structural", "motor", "enzyme"})
	repo.SetSample(meta.ColumnRef{Table: "Protein", Column: "PName"},
		[]string{"G-Actin", "Myosin"})
	g := NewGenerator(repo, 0.6)
	queries, _ := g.Generate("the structural protein G-Actin was observed")
	if len(queries) == 0 {
		t.Fatal("no queries")
	}
	// Some query must carry BOTH value keywords (PName and PType).
	found := false
	for _, q := range queries {
		var hasName, hasType bool
		for _, k := range q.Keywords {
			if k.Role != keyword.RoleValue {
				continue
			}
			switch k.TargetColumn {
			case "PName":
				hasName = true
			case "PType":
				hasType = true
			}
		}
		if hasName && hasType {
			found = true
		}
	}
	if !found {
		t.Errorf("no combination query formed: %v", queries)
	}
	// And no query may consist of low-selectivity value keywords alone: a
	// bare {protein, structural} query selects a sixth of the table, not a
	// tuple.
	for _, q := range queries {
		selective := false
		for _, k := range q.Keywords {
			if k.Role == keyword.RoleValue && k.TargetColumn != "PType" {
				selective = true
			}
		}
		if !selective {
			t.Errorf("category-only query survived: %v", q)
		}
	}
}

func TestSelectivityFilterDropsCategoryQueries(t *testing.T) {
	repo := fixture(t)
	repo.SetOntology(meta.ColumnRef{Table: "Protein", Column: "PType"},
		[]string{"structural", "motor", "enzyme"})
	g := NewGenerator(repo, 0.6)
	// Only the category word near the concept: no embedded reference here.
	queries, _ := g.Generate("we observed the structural protein behaviour in culture")
	if len(queries) != 0 {
		t.Errorf("category-only text produced queries: %v", queries)
	}
	// With the filter disabled the query appears (the knob works).
	g2 := NewGenerator(repo, 0.6)
	g2.MinSelectivity = 0
	queries, _ = g2.Generate("we observed the structural protein behaviour in culture")
	if len(queries) == 0 {
		t.Error("disabled filter still dropped the query")
	}
}

func TestGenerateEmptyAnnotation(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	queries, stats := g.Generate("")
	if len(queries) != 0 || stats.Tokens != 0 {
		t.Errorf("empty annotation: %v %+v", queries, stats)
	}
	queries, _ = g.Generate("purely narrative prose without identifiers")
	if len(queries) != 0 {
		t.Errorf("narrative text produced queries: %v", queries)
	}
}

func TestMappingKindString(t *testing.T) {
	if KindTable.String() != "table" || KindColumn.String() != "column" || KindValue.String() != "value" {
		t.Error("MappingKind.String wrong")
	}
	m := Mapping{Kind: KindValue, Table: "Gene", Column: "GID", Weight: 0.5}
	if m.String() == "" {
		t.Error("Mapping.String empty")
	}
}

func TestEntriesInRangeOrdering(t *testing.T) {
	g := NewGenerator(fixture(t), 0.6)
	tokens := textutil.Tokenize("grpC gene JW0014")
	ctx := Overlay(tokens, g.ConceptMap(tokens), g.ValueMap(tokens))
	var geneIdx int
	for i, e := range ctx.Entries {
		if e.Token.Lower == "gene" {
			geneIdx = i
		}
	}
	neighbors := ctx.AppendEntriesInRange(nil, geneIdx, 3)
	if len(neighbors) != 2 {
		t.Fatalf("neighbors = %d", len(neighbors))
	}
	if neighbors[0].Token.Index > neighbors[1].Token.Index {
		t.Error("neighbors not in index order")
	}
}
