package meta

import (
	"strings"

	"nebula/internal/relational"
)

// Estimator derives structured-query cost and selectivity estimates from
// the repository's metadata: table cardinalities, index availability from
// the schema, the cached distinct-value statistics, and the column samples
// drawn for the signature-map generator. Estimates are deterministic — they
// read only catalog state fixed at dataset-build time — so a consumer of
// them decides identically at any worker count and with caches on or off.
// They are also allowed to be wrong: use them for ordering and budgeting
// only, never for correctness.
//
// Its one caller is the benchmark's meta.estimate_us probe
// (benchmark/layers.go).
type Estimator struct {
	repo *Repository
}

// NewEstimator builds an estimator over the repository's catalog.
func NewEstimator(repo *Repository) *Estimator { return &Estimator{repo: repo} }

// SelectEstimate is the estimated execution profile of one structured query.
type SelectEstimate struct {
	// Cost is the estimated number of tuples the access path touches: the
	// expected index-bucket size when an indexed predicate can drive the
	// query, the full table cardinality otherwise.
	Cost float64
	// Rows is the estimated result cardinality after all predicates.
	Rows float64
	// Indexed reports whether an index can drive the query.
	Indexed bool
}

// EstimateSelect estimates one structured query against the catalog.
// Unknown tables or columns cost zero — the executor will reject them
// before scanning anything.
func (e *Estimator) EstimateSelect(q relational.Query) SelectEstimate {
	t, ok := e.repo.db.Table(q.Table)
	if !ok || t.Len() == 0 {
		return SelectEstimate{}
	}
	n := float64(t.Len())
	schema := t.Schema()
	est := SelectEstimate{Cost: n, Rows: n}
	for _, p := range q.Predicates {
		col, ok := schema.Column(p.Column)
		if !ok {
			continue
		}
		frac := e.predicateFraction(q.Table, col, p)
		est.Rows *= frac
		indexed := false
		switch p.Op {
		case relational.OpEq:
			indexed = col.Indexed || strings.EqualFold(col.Name, schema.PrimaryKey)
		case relational.OpContainsToken:
			indexed = col.FullText
		}
		if indexed {
			est.Indexed = true
			if bucket := n * frac; bucket < est.Cost {
				est.Cost = bucket
			}
		}
	}
	if est.Cost < 1 {
		est.Cost = 1
	}
	return est
}

// predicateFraction estimates the fraction of the table's rows one
// predicate keeps. Equality predicates use the distinct-value statistic
// (uniform-bucket assumption: 1/distinct). Token predicates consult the
// column sample when one was drawn — the fraction of sampled values
// containing the operand as a token — and fall back to the distinct-value
// heuristic otherwise. Prefix predicates have no statistic and assume a
// half-table match.
func (e *Estimator) predicateFraction(table string, col relational.Column, p relational.Predicate) float64 {
	ref := ColumnRef{Table: table, Column: col.Name}
	switch p.Op {
	case relational.OpEq:
		if sel := e.repo.ColumnSelectivity(ref); sel > 0 {
			return 1 / (sel * float64(tableLen(e.repo, table)))
		}
		return 1
	case relational.OpContainsToken:
		if sample, ok := e.repo.Sample(ref); ok && len(sample) > 0 {
			token := strings.ToLower(p.Operand.Str())
			hits := 0
			for _, v := range sample {
				if tokenInValue(v, token) {
					hits++
				}
			}
			frac := float64(hits) / float64(len(sample))
			if frac <= 0 {
				// Absent from the sample: rare, not impossible. Floor at
				// one expected row so cost ordering still separates rare
				// tokens from common ones.
				frac = 1 / float64(tableLen(e.repo, table))
			}
			return frac
		}
		if sel := e.repo.ColumnSelectivity(ref); sel > 0 {
			return 1 / (sel * float64(tableLen(e.repo, table)))
		}
		return 1
	default:
		return 0.5
	}
}

func tableLen(repo *Repository, table string) int {
	if t, ok := repo.db.Table(table); ok && t.Len() > 0 {
		return t.Len()
	}
	return 1
}

// tokenInValue reports whether the (lowercased) token occurs as a
// whitespace/punctuation-delimited word of the value — the same notion of
// token the inverted index and the ContainsToken predicate use, applied to
// sample strings for selectivity estimation.
func tokenInValue(value, token string) bool {
	if token == "" {
		return false
	}
	fields := strings.FieldsFunc(strings.ToLower(value), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9' || r == '_')
	})
	for _, f := range fields {
		if f == token {
			return true
		}
	}
	return false
}
