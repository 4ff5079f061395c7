package keyword

import (
	"sort"
	"strings"

	"nebula/internal/meta"
	"nebula/internal/relational"
)

// Configuration captures one possible semantics of a keyword query (the
// "configurations" of [7]): an assignment of every keyword to a concrete
// schema element or column domain, materialized as a structured query with
// a confidence weight. Most configurations are single-table; when the
// concept keywords name one table and the value keywords another, and the
// two are linked by an FK–PK relationship, the configuration is a *join*:
// the structured query runs on the value table and the produced tuples are
// mapped across the relationship into the target table ("the protein of
// gene JW0013"). This is the FK–PK awareness §6.1 attributes to the
// underlying search technique.
type Configuration struct {
	// Table is the table whose tuples the configuration produces.
	Table string
	// Structured is the query to execute (its table differs from Table for
	// join configurations).
	Structured relational.Query
	// Join reports whether the configuration maps results across an FK–PK
	// relationship into Table.
	Join bool
	// Confidence estimates how well the configuration matches the keyword
	// query's intended semantics, in (0,1].
	Confidence float64
}

// joinDiscount is the confidence multiplier for join configurations: a
// cross-table interpretation is plausible but weaker than a direct one.
const joinDiscount = 0.8

// mappingOption is one candidate interpretation of a single keyword.
type mappingOption struct {
	role   Role
	table  string
	column string // for RoleColumn / RoleValue
	weight float64
}

// Configurations enumerates the configurations of a keyword query. Keywords
// carrying upstream hints (TargetTable/TargetColumn) use them directly;
// un-hinted keywords are mapped through NebulaMeta. Only configurations
// with at least one value predicate are returned: a keyword query whose
// keywords are all schema references selects entire tables, which the
// pipeline treats as noise rather than an embedded reference.
func (e *Engine) Configurations(q Query) []Configuration {
	options := make([][]mappingOption, len(q.Keywords))
	for i, k := range q.Keywords {
		options[i] = e.keywordOptions(k)
		if len(options[i]) == 0 {
			// A keyword with no interpretation contributes nothing; give it
			// a single empty option so the cross-product stays non-empty.
			options[i] = []mappingOption{{role: k.Role, weight: 0}}
		}
	}

	var out []Configuration
	assignment := make([]mappingOption, len(q.Keywords))
	var recurse func(i int)
	recurse = func(i int) {
		if len(out) >= e.MaxConfigurations {
			return
		}
		if i == len(q.Keywords) {
			if cfg, ok := e.buildConfiguration(q, assignment); ok {
				out = append(out, cfg)
			}
			return
		}
		for _, opt := range options[i] {
			assignment[i] = opt
			recurse(i + 1)
		}
	}
	recurse(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}

// keywordOptions lists candidate interpretations of one keyword, strongest
// first, capped at MaxMappingsPerKeyword.
func (e *Engine) keywordOptions(k Keyword) []mappingOption {
	var opts []mappingOption
	if k.TargetTable != "" {
		// Upstream (signature maps) pinned the mapping: it leads, but the
		// search technique does not fully trust it — a value keyword is
		// also probed against the concept's other referencing columns (a
		// "JW..."-shaped word pinned to Gene.GID might still be a Name).
		// These alternate configurations are exactly the multiple SQL
		// queries per keyword query that [7] generates, and the reason the
		// §6 shared executor has overlapping work to share.
		w := k.Weight
		if w <= 0 {
			w = 0.5
		}
		opts = append(opts, mappingOption{role: k.Role, table: k.TargetTable, column: k.TargetColumn, weight: w})
		if k.Role == RoleValue && k.TargetColumn != "" {
			opts = append(opts, e.alternateValueOptions(k, w)...)
		}
		return opts
	}
	// Derive mappings from NebulaMeta, as [7] does from its metadata.
	for _, m := range e.meta.ConceptMatches(k.Text) {
		if m.Weight < e.MinMappingWeight {
			continue
		}
		role := RoleTable
		if m.Element.Kind == meta.ColumnElement {
			role = RoleColumn
		}
		opts = append(opts, mappingOption{
			role:   role,
			table:  m.Element.Table,
			column: m.Element.Column,
			weight: m.Weight,
		})
	}
	for _, m := range e.meta.ValueMatches(k.Text) {
		if m.Weight < e.MinMappingWeight {
			continue
		}
		opts = append(opts, mappingOption{
			role:   RoleValue,
			table:  m.Column.Table,
			column: m.Column.Column,
			weight: m.Weight,
		})
	}
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].weight > opts[j].weight })
	if len(opts) > e.MaxMappingsPerKeyword {
		opts = opts[:e.MaxMappingsPerKeyword]
	}
	return opts
}

// alternateValueOptions returns probe interpretations of a hinted value
// keyword over the other referencing columns of the same table's concepts,
// at half the hinted weight, capped at two alternates.
func (e *Engine) alternateValueOptions(k Keyword, hintWeight float64) []mappingOption {
	var out []mappingOption
	for _, c := range e.meta.Concepts() {
		if !equalFold(c.Table, k.TargetTable) {
			continue
		}
		for _, col := range c.Columns() {
			if equalFold(col.Column, k.TargetColumn) {
				continue
			}
			colType, ok := e.meta.ColumnType(col)
			if !ok || !relational.CoercibleTo(colType, k.Text) {
				continue
			}
			out = append(out, mappingOption{
				role:   RoleValue,
				table:  col.Table,
				column: col.Column,
				weight: hintWeight / 2,
			})
			if len(out) == 2 {
				return out
			}
		}
	}
	return out
}

// buildConfiguration materializes one assignment into a configuration. The
// assignment must either be table-consistent, or split exactly into concept
// keywords on one table and value keywords on another table linked to it by
// an FK–PK relationship (a join configuration). At least one value
// predicate with positive weight is required.
func (e *Engine) buildConfiguration(q Query, assignment []mappingOption) (Configuration, bool) {
	conceptTable, valueTable := "", ""
	for _, opt := range assignment {
		if opt.table == "" || opt.weight <= 0 {
			continue
		}
		if opt.role == RoleValue {
			if valueTable == "" {
				valueTable = opt.table
			} else if !equalFold(valueTable, opt.table) {
				return Configuration{}, false
			}
		} else {
			if conceptTable == "" {
				conceptTable = opt.table
			} else if !equalFold(conceptTable, opt.table) {
				return Configuration{}, false
			}
		}
	}
	if valueTable == "" {
		return Configuration{}, false
	}
	join := false
	targetTable := valueTable
	if conceptTable != "" && !equalFold(conceptTable, valueTable) {
		// Cross-table: acceptable only across a direct FK–PK link.
		if !e.fkLinked(conceptTable, valueTable) {
			return Configuration{}, false
		}
		join = true
		targetTable = conceptTable
	}
	table := valueTable
	t, ok := e.db.Table(table)
	if !ok {
		return Configuration{}, false
	}

	var preds []relational.Predicate
	totalWeight, n := 0.0, 0
	eqKeys := make(map[string]string) // lowercased column -> operand key of its OpEq predicate
	for i, opt := range assignment {
		if opt.weight <= 0 {
			continue
		}
		totalWeight += opt.weight
		n++
		if opt.role != RoleValue {
			continue // concept keywords select the table, no predicate
		}
		col, ok := t.Schema().Column(opt.column)
		if !ok {
			return Configuration{}, false
		}
		op := relational.OpEq
		if col.FullText {
			op = relational.OpContainsToken
		}
		operand, err := relational.ParseValue(col.Type, q.Keywords[i].Text)
		if err != nil {
			return Configuration{}, false
		}
		if op == relational.OpEq {
			// Two equality predicates on one column with distinct canonical
			// operands (OpEq matches case-insensitively, and Key() is the
			// case-folded canonical form) can never both hold on a tuple, so
			// the configuration is unsatisfiable: it would scan and always
			// produce nothing. Drop it from the cross-product.
			// Token-containment predicates are exempt: one text cell can
			// contain both tokens.
			key := strings.ToLower(opt.column)
			if prev, seen := eqKeys[key]; seen {
				if prev != operand.Key() {
					return Configuration{}, false
				}
			} else {
				eqKeys[key] = operand.Key()
			}
		}
		preds = append(preds, relational.Predicate{Column: opt.column, Op: op, Operand: operand})
	}
	if len(preds) == 0 || n == 0 {
		return Configuration{}, false
	}
	conf := totalWeight / float64(n)
	if join {
		conf *= joinDiscount
	}
	tt, ok := e.db.Table(targetTable)
	if !ok {
		return Configuration{}, false
	}
	return Configuration{
		Table:      tt.Name(),
		Structured: relational.Query{Table: t.Name(), Predicates: preds},
		Join:       join,
		Confidence: conf,
	}, true
}

// fkLinked reports whether tables a and b are connected by a direct FK–PK
// relationship in either direction.
func (e *Engine) fkLinked(a, b string) bool {
	ta, okA := e.db.Table(a)
	tb, okB := e.db.Table(b)
	if !okA || !okB {
		return false
	}
	for _, fk := range ta.Schema().ForeignKeys {
		if equalFold(fk.RefTable, b) {
			return true
		}
	}
	for _, fk := range tb.Schema().ForeignKeys {
		if equalFold(fk.RefTable, a) {
			return true
		}
	}
	return false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
