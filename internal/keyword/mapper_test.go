package keyword

import (
	"strings"
	"testing"

	"nebula/internal/relational"
)

// TestContradictoryConfigurationsDropped is the regression test for the
// self-contradictory cross-product configurations (ROADMAP item 4
// follow-up): an assignment mapping two keywords with different canonical
// values onto the same column as equality predicates (Name=x AND Name=y)
// is unsatisfiable — it can never produce a tuple but used to execute a
// scan. Such configurations must no longer be enumerated; satisfiable
// cross-products survive.
func TestContradictoryConfigurationsDropped(t *testing.T) {
	_, _, e := fixture(t)
	// Each hinted value keyword also probes the concept's other referencing
	// column at half weight (GID <-> Name), so the raw cross-product holds
	// four assignments: (GID,Name) and (Name,GID) are satisfiable while
	// (GID,GID) and (Name,Name) pin one column to two different values.
	q := Query{ID: "qc", Weight: 1, Keywords: []Keyword{
		{Text: "JW0013", Role: RoleValue, TargetTable: "Gene", TargetColumn: "GID", Weight: 0.9},
		{Text: "grpC", Role: RoleValue, TargetTable: "Gene", TargetColumn: "Name", Weight: 0.9},
	}}
	cfgs := e.Configurations(q)
	if len(cfgs) != 2 {
		t.Fatalf("configurations = %d, want 2 (contradictory pair dropped): %+v", len(cfgs), cfgs)
	}
	for _, cfg := range cfgs {
		keys := make(map[string]string)
		for _, p := range cfg.Structured.Predicates {
			if p.Op != relational.OpEq {
				continue
			}
			col := strings.ToLower(p.Column)
			if prev, ok := keys[col]; ok && prev != p.Operand.Key() {
				t.Errorf("unsatisfiable configuration survived: %+v", cfg)
			}
			keys[col] = p.Operand.Key()
		}
	}
	// The satisfiable interpretation still finds its tuple.
	rs, _, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.Tuple.ID.Table == "Gene" && r.Tuple.MustGet("GID").Str() == "JW0013" {
			found = true
		}
	}
	if !found {
		t.Fatalf("satisfiable configuration lost: %v", rs)
	}

	// Repeating the same value is redundant, not contradictory: equality
	// matches case-insensitively, so the canonical operand keys agree and
	// the configuration must survive.
	dup := Query{ID: "qd", Weight: 1, Keywords: []Keyword{
		{Text: "grpC", Role: RoleValue, TargetTable: "Gene", TargetColumn: "Name", Weight: 0.9},
		{Text: "GRPC", Role: RoleValue, TargetTable: "Gene", TargetColumn: "Name", Weight: 0.9},
	}}
	dupCfgs := e.Configurations(dup)
	sameCol := false
	for _, cfg := range dupCfgs {
		cols := make(map[string]int)
		for _, p := range cfg.Structured.Predicates {
			cols[strings.ToLower(p.Column)]++
		}
		if cols["name"] == 2 {
			sameCol = true
		}
	}
	if !sameCol {
		t.Errorf("case-folded duplicate value dropped as contradictory: %+v", dupCfgs)
	}
}
