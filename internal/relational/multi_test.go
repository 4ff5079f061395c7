package relational

import (
	"math/rand"
	"testing"
)

func TestSelectMultiMatchesSelect(t *testing.T) {
	db := testDB(t)
	queries := []Query{
		{Table: "Gene", Predicates: []Predicate{{Column: "Family", Op: OpEq, Operand: String("F1")}}},
		{Table: "Gene", Predicates: []Predicate{{Column: "Seq", Op: OpEq, Operand: String("TGCT")}}},   // scan
		{Table: "Gene", Predicates: []Predicate{{Column: "Seq", Op: OpEq, Operand: String("GGTT")}}},   // scan, same column
		{Table: "Gene", Predicates: []Predicate{{Column: "Seq", Op: OpPrefix, Operand: String("TG")}}}, // residual scan
		{Table: "Protein", Predicates: []Predicate{{Column: "PType", Op: OpEq, Operand: String("motor")}}},
		{Table: "Gene", Predicates: []Predicate{ // multi-predicate residual
			{Column: "Seq", Op: OpPrefix, Operand: String("T")},
			{Column: "Family", Op: OpEq, Operand: String("F1")},
		}},
	}
	multi, _, err := db.SelectMultiWorkers(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, _, err := db.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(multi[i]) {
			t.Fatalf("query %d: multi %d rows, single %d", i, len(multi[i]), len(single))
		}
		seen := map[TupleID]bool{}
		for _, r := range single {
			seen[r.ID] = true
		}
		for _, r := range multi[i] {
			if !seen[r.ID] {
				t.Fatalf("query %d: multi returned %v not in single results", i, r.ID)
			}
		}
	}
}

func TestSelectMultiSharesScans(t *testing.T) {
	db := testDB(t)
	// Three scan queries on the same non-indexed column: one table pass.
	queries := []Query{
		{Table: "Gene", Predicates: []Predicate{{Column: "Seq", Op: OpEq, Operand: String("TGCT")}}},
		{Table: "Gene", Predicates: []Predicate{{Column: "Seq", Op: OpEq, Operand: String("GGTT")}}},
		{Table: "Gene", Predicates: []Predicate{{Column: "Seq", Op: OpEq, Operand: String("TTCG")}}},
	}
	_, stats, err := db.SelectMultiWorkers(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	geneRows := db.MustTable("Gene").Len()
	if stats.TuplesScanned != geneRows {
		t.Errorf("scanned %d, want one shared pass of %d", stats.TuplesScanned, geneRows)
	}
	// Individually they scan 3×.
	var individual SelectStats
	for _, q := range queries {
		_, st, err := db.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		individual.Add(st)
	}
	if individual.TuplesScanned != 3*geneRows {
		t.Errorf("individual scanned %d, want %d", individual.TuplesScanned, 3*geneRows)
	}
}

func TestSelectMultiErrors(t *testing.T) {
	db := testDB(t)
	if _, _, err := db.SelectMultiWorkers([]Query{{Table: "Missing"}}, 1); err == nil {
		t.Error("unknown table should fail")
	}
	if _, _, err := db.SelectMultiWorkers([]Query{{
		Table:      "Gene",
		Predicates: []Predicate{{Column: "Nope", Op: OpEq, Operand: String("x")}},
	}}, 1); err == nil {
		t.Error("unknown column should fail")
	}
	out, _, err := db.SelectMultiWorkers(nil, 1)
	if err != nil || len(out) != 0 {
		t.Error("empty batch should be a no-op")
	}
}

// TestSelectMultiRandomEquivalence is a property test: for random batches
// of queries over the fixture, SelectMultiWorkers is result-equivalent to
// Select.
func TestSelectMultiRandomEquivalence(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(99))
	// Candidate predicate generators.
	operands := map[string][]string{
		"Gene/GID":          {"JW0013", "JW0019", "nope"},
		"Gene/Name":         {"grpC", "yaaB", "zzz"},
		"Gene/Family":       {"F1", "F3", "F9"},
		"Gene/Seq":          {"TGCT", "AAAA", "TGTG"},
		"Protein/PName":     {"G-Actin", "Myosin", "x"},
		"Protein/PType":     {"motor", "structural", "q"},
		"Publication/Title": {"study", "gene"},
	}
	keys := make([]string, 0, len(operands))
	for k := range operands {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		queries := make([]Query, n)
		for i := range queries {
			key := keys[rng.Intn(len(keys))]
			var table, col string
			for j := 0; j < len(key); j++ {
				if key[j] == '/' {
					table, col = key[:j], key[j+1:]
				}
			}
			ops := operands[key]
			op := OpEq
			if rng.Intn(4) == 0 {
				op = OpPrefix
			}
			queries[i] = Query{Table: table, Predicates: []Predicate{{
				Column: col, Op: op, Operand: String(ops[rng.Intn(len(ops))]),
			}}}
		}
		multi, _, err := db.SelectMultiWorkers(queries, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			single, _, err := db.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(single) != len(multi[i]) {
				t.Fatalf("trial %d query %d (%v): multi %d vs single %d",
					trial, i, q, len(multi[i]), len(single))
			}
		}
	}
}
