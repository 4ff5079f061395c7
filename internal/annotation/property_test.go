package annotation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nebula/internal/relational"
)

// TestStoreRandomOperationInvariants drives the store with random
// attach/detach/detach-tuple/promote sequences, mirrors each operation on a
// map model, and checks after every step:
//
//  1. EdgeCount equals the sum of per-annotation attachment counts and the
//     sum of per-tuple attachment counts (the two indexes agree).
//  2. Focal(a) is exactly the true attachments of a.
//  3. True attachments always have confidence 1; predictions are in [0,1).
//  4. Edge() is consistent with both index views.
//  5. Edge over the whole grid, EdgeCount, TrueEdgeSet and Quality match
//     the model, on the live store and on LoadStore of its dumped lists.
func TestStoreRandomOperationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	s := NewStore()
	const nAnn, nTup = 8, 15
	for i := 0; i < nAnn; i++ {
		if err := s.Add(&Annotation{ID: ID(fmt.Sprintf("a%d", i)), Body: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	tup := func(i int) relational.TupleID {
		return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	ideal := IdealEdges{}
	for i := 0; i < nAnn; i++ {
		for j := 0; j < nTup; j++ {
			if (i+j)%3 == 0 {
				ideal[EdgeKey{Annotation: ID(fmt.Sprintf("a%d", i)), Tuple: tup(j)}] = struct{}{}
			}
		}
	}
	model := map[EdgeKey]Attachment{}
	attach := func(att Attachment) {
		if _, err := s.Attach(att); err != nil {
			t.Fatal(err)
		}
		key := att.edgeKey()
		old, ok := model[key]
		switch {
		case !ok:
			model[key] = att
		case old.Type == TrueAttachment:
		case att.Type == TrueAttachment || att.Confidence > old.Confidence:
			old.Type, old.Confidence, old.Column = att.Type, att.Confidence, att.Column
			model[key] = old
		}
	}
	for step := 0; step < 2000; step++ {
		a := ID(fmt.Sprintf("a%d", rng.Intn(nAnn)))
		tu := tup(rng.Intn(nTup))
		key := EdgeKey{Annotation: a, Tuple: tu}
		switch rng.Intn(6) {
		case 0, 1:
			attach(Attachment{Annotation: a, Tuple: tu, Type: TrueAttachment, Confidence: 1})
		case 2:
			attach(Attachment{Annotation: a, Tuple: tu, Type: PredictedAttachment,
				Confidence: rng.Float64() * 0.99, Column: fmt.Sprintf("c%d", rng.Intn(3))})
		case 3:
			_, had := model[key]
			if got := s.Detach(a, tu); got != had {
				t.Fatalf("step %d: Detach = %v, model %v", step, got, had)
			}
			delete(model, key)
		case 4:
			want := 0
			for k := range model {
				if k.Tuple == tu {
					delete(model, k)
					want++
				}
			}
			if got := s.DetachTuple(tu); got != want {
				t.Fatalf("step %d: DetachTuple = %d, model %d", step, got, want)
			}
		case 5:
			att, had := model[key]
			if err := s.Promote(a, tu); (err == nil) != had {
				t.Fatalf("step %d: Promote error %v with edge present %v", step, err, had)
			}
			if had {
				att.Type, att.Confidence = TrueAttachment, 1
				model[key] = att
			}
		}
		checkStoreInvariants(t, s, nAnn, nTup, step)
		checkStoreModel(t, s, model, ideal, nAnn, nTup, step)

		var anns []Annotation
		var atts []Attachment
		for _, id := range s.IDs() {
			a, _ := s.Get(id)
			anns = append(anns, *a)
			for _, att := range s.Attachments(id, -1) {
				atts = append(atts, *att)
			}
		}
		loaded, err := LoadStore(anns, atts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkStoreInvariants(t, loaded, nAnn, nTup, step)
		checkStoreModel(t, loaded, model, ideal, nAnn, nTup, step)
	}
}

// checkStoreModel compares the store's edge answers with the model's over
// every (annotation, tuple) pair of the grid.
func checkStoreModel(t *testing.T, s *Store, model map[EdgeKey]Attachment, ideal IdealEdges, nAnn, nTup, step int) {
	t.Helper()
	for i := 0; i < nAnn; i++ {
		for j := 0; j < nTup; j++ {
			key := EdgeKey{Annotation: ID(fmt.Sprintf("a%d", i)), Tuple: relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", j)}}
			want, wantOK := model[key]
			got, ok := s.Edge(key.Annotation, key.Tuple)
			if ok != wantOK || (ok && *got != want) {
				t.Fatalf("step %d: Edge(%v) = %v,%v; model %v,%v", step, key, got, ok, want, wantOK)
			}
		}
	}
	if s.EdgeCount() != len(model) {
		t.Fatalf("step %d: EdgeCount = %d, model %d", step, s.EdgeCount(), len(model))
	}
	trueEdges := map[EdgeKey]struct{}{}
	for key, att := range model {
		if att.Type == TrueAttachment {
			trueEdges[key] = struct{}{}
		}
	}
	if got := s.TrueEdgeSet(); !reflect.DeepEqual(got, trueEdges) {
		t.Fatalf("step %d: TrueEdgeSet = %v, model %v", step, got, trueEdges)
	}
	want := QualityMetrics{IdealEdges: len(ideal), ActualEdges: len(model)}
	for key := range ideal {
		if _, ok := model[key]; !ok {
			want.Missing++
		}
	}
	for key := range model {
		if _, ok := ideal[key]; !ok {
			want.Spurious++
		}
	}
	if want.IdealEdges > 0 {
		want.FalseNegativeRatio = float64(want.Missing) / float64(want.IdealEdges)
	}
	if want.ActualEdges > 0 {
		want.FalsePositiveRatio = float64(want.Spurious) / float64(want.ActualEdges)
	}
	if got := s.Quality(ideal); got != want {
		t.Fatalf("step %d: Quality = %+v, model %+v", step, got, want)
	}
}

func checkStoreInvariants(t *testing.T, s *Store, nAnn, nTup, step int) {
	t.Helper()
	tup := func(i int) relational.TupleID {
		return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	byAnn, byTup := 0, 0
	for i := 0; i < nAnn; i++ {
		a := ID(fmt.Sprintf("a%d", i))
		atts := s.Attachments(a, -1)
		byAnn += len(atts)
		trueCount := 0
		for _, att := range atts {
			switch att.Type {
			case TrueAttachment:
				trueCount++
				if att.Confidence != 1 {
					t.Fatalf("step %d: true attachment with confidence %f", step, att.Confidence)
				}
			default:
				if att.Confidence < 0 || att.Confidence >= 1 {
					t.Fatalf("step %d: prediction confidence %f", step, att.Confidence)
				}
			}
			// Edge() agrees with the index view.
			if edge, ok := s.Edge(att.Annotation, att.Tuple); !ok || edge != att {
				t.Fatalf("step %d: Edge() disagrees with byAnnotation index", step)
			}
		}
		if len(s.Focal(a)) != trueCount {
			t.Fatalf("step %d: focal size %d != true attachments %d", step, len(s.Focal(a)), trueCount)
		}
	}
	for i := 0; i < nTup; i++ {
		byTup += len(s.TupleAnnotations(tup(i), -1))
	}
	if byAnn != s.EdgeCount() || byTup != s.EdgeCount() {
		t.Fatalf("step %d: index views disagree: byAnn=%d byTup=%d edges=%d",
			step, byAnn, byTup, s.EdgeCount())
	}
}
