package annotation

import (
	"cmp"
	"slices"
	"strings"

	"nebula/internal/relational"
)

// PropagatedRow pairs a query-result tuple with the annotations that
// propagate to it. This is the query-time annotation propagation facility of
// the underlying engine [18]: when users run relational queries, annotations
// attached to the produced tuples (or to the projected cells) ride along
// with the answers.
type PropagatedRow struct {
	// Row is the data tuple from the query result.
	Row *relational.Row
	// Annotations are the annotations propagated to this tuple, in stable
	// (annotation-insertion) order.
	Annotations []*Annotation
	// Confidences aligns with Annotations: the edge weight of the
	// attachment each annotation propagated through.
	Confidences []float64
}

// Propagate computes, for each result row, the annotations that propagate
// to it. projected lists the columns the query projects; an empty slice
// means SELECT * (every attachment propagates). Cell-level attachments
// propagate only when their column is projected; row-level attachments
// always propagate. Predicted attachments propagate with their estimated
// confidence so that downstream consumers can display the uncertainty.
func (s *Store) Propagate(rows []*relational.Row, projected []string) []PropagatedRow {
	projSet := projection(projected)
	out := make([]PropagatedRow, 0, len(rows))
	var buf []propagated
	for _, r := range rows {
		pr := PropagatedRow{Row: r}
		buf = s.rowAnnotations(buf[:0], r.ID, projSet)
		for _, p := range buf {
			pr.Annotations = append(pr.Annotations, p.a)
			pr.Confidences = append(pr.Confidences, p.conf)
		}
		out = append(out, pr)
	}
	return out
}

// propagated is one annotation reaching a result row: the annotation, its
// insertion ordinal, and the confidence of the edge it came through.
type propagated struct {
	a    *Annotation
	ord  int32
	conf float64
}

// projection is the lower-cased set of projected columns; empty for
// SELECT *.
func projection(projected []string) map[string]struct{} {
	set := make(map[string]struct{}, len(projected))
	for _, c := range projected {
		set[strings.ToLower(c)] = struct{}{}
	}
	return set
}

// rowAnnotations appends the annotations that propagate to tuple under
// projSet to buf, in annotation-insertion order: the tuple's own edges,
// sorted stably by their annotation's ordinal. The cost is the tuple's
// edge count, whatever the size of the store.
func (s *Store) rowAnnotations(buf []propagated, tuple relational.TupleID, projSet map[string]struct{}) []propagated {
	for _, att := range s.byTuple[tuple] {
		if att.Column != "" && len(projSet) > 0 {
			if _, ok := projSet[strings.ToLower(att.Column)]; !ok {
				continue
			}
		}
		reg := s.annotations[att.Annotation]
		buf = append(buf, propagated{a: reg.a, ord: reg.ord, conf: att.Confidence})
	}
	slices.SortStableFunc(buf, func(x, y propagated) int { return cmp.Compare(x.ord, y.ord) })
	return buf
}

// PropagateQuery runs a structured query against db and propagates
// annotations over its results in one step.
func (s *Store) PropagateQuery(db *relational.Database, q relational.Query, projected []string) ([]PropagatedRow, error) {
	rows, _, err := db.Select(q)
	if err != nil {
		return nil, err
	}
	return s.Propagate(rows, projected), nil
}

// PropagatedJoinRow pairs one joined output row with the annotations that
// propagate to it from either contributing tuple.
type PropagatedJoinRow struct {
	// Left and Right are the contributing tuples.
	Left, Right *relational.Row
	// Annotations propagated from either side, deduplicated: the left
	// tuple's annotations in annotation-insertion order, then the right
	// tuple's annotations that the left one lacks, in the same order.
	Annotations []*Annotation
	// Confidences aligns with Annotations; when an annotation reaches the
	// output row through both sides, the higher edge confidence wins.
	Confidences []float64
}

// PropagateJoin executes the FK–PK equijoin of the two selections and
// propagates annotations over the joined rows: an annotation attached to
// either contributing tuple rides along with the output row — the join
// semantics of query-time propagation in [9]/[18]. projectedLeft and
// projectedRight list the projected columns of each side (empty = all);
// cell-level attachments propagate only when their column is projected on
// their own side.
func (s *Store) PropagateJoin(db *relational.Database, left, right relational.Query, projectedLeft, projectedRight []string) ([]PropagatedJoinRow, error) {
	joined, _, err := db.Join(left, right)
	if err != nil {
		return nil, err
	}
	leftSet, rightSet := projection(projectedLeft), projection(projectedRight)
	out := make([]PropagatedJoinRow, 0, len(joined))
	var lbuf, rbuf []propagated
	for _, jr := range joined {
		lbuf = s.rowAnnotations(lbuf[:0], jr.Left.ID, leftSet)
		rbuf = s.rowAnnotations(rbuf[:0], jr.Right.ID, rightSet)
		row := PropagatedJoinRow{Left: jr.Left, Right: jr.Right}
		for _, p := range lbuf {
			row.Annotations = append(row.Annotations, p.a)
			row.Confidences = append(row.Confidences, p.conf)
		}
		// Both sides are in ordinal order, so one forward walk of the left
		// side finds each right annotation it already holds; position i of
		// lbuf is position i of the row.
		li := 0
		for _, p := range rbuf {
			for li < len(lbuf) && lbuf[li].ord < p.ord {
				li++
			}
			if li < len(lbuf) && lbuf[li].ord == p.ord {
				if p.conf > row.Confidences[li] {
					row.Confidences[li] = p.conf
				}
				continue
			}
			row.Annotations = append(row.Annotations, p.a)
			row.Confidences = append(row.Confidences, p.conf)
		}
		out = append(out, row)
	}
	return out, nil
}
