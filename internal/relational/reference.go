package relational

import "strings"

// The shared pass as it stood before the folded-hash kernel, kept as the
// oracle the kernel is held against: the differential and fuzz tests
// compare rows, order and stats with it, and so does the workload batch of
// scan_workload_test.go. Nothing else may call it.

// SelectMultiReference is SelectMultiWorkers run through the reference
// row kernel: Value.Key() for every row of every probed column, and
// name-resolving, whole-cell-lowering predicate evaluation for residuals.
func (db *Database) SelectMultiReference(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, workers, scanReference)
}

func (pass *tablePass) scanReference(lo, hi int, hits []hit) []hit {
	for _, r := range pass.t.rows[lo:hi] {
		for _, p := range pass.probes {
			for _, qi := range p.byKey[r.Values[p.colIdx].Key()] {
				hits = append(hits, hit{qi: int32(qi), r: r})
			}
		}
		for _, item := range pass.residual {
			match := true
			for _, pred := range item.q.Predicates {
				if !referenceMatches(pred, r) {
					match = false
					break
				}
			}
			if match {
				hits = append(hits, hit{qi: int32(item.idx), r: r})
			}
		}
	}
	return hits
}

func referenceMatches(p Predicate, r *Row) bool {
	v, ok := r.Get(p.Column)
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.EqualFold(p.Operand)
	case OpContainsToken:
		return containsTokenLowered(strings.ToLower(v.Str()), strings.ToLower(p.Operand.Str()))
	case OpPrefix:
		return strings.HasPrefix(strings.ToLower(v.Str()), strings.ToLower(p.Operand.Str()))
	default:
		return false
	}
}
