package annotation

import (
	"fmt"
	"reflect"
	"testing"

	"nebula/internal/relational"
)

func loadInputs(anns, perAnn int) ([]Annotation, []Attachment) {
	var as []Annotation
	var es []Attachment
	for i := 0; i < anns; i++ {
		id := ID(fmt.Sprintf("ann-%d", i))
		as = append(as, Annotation{ID: id, Author: "c", Body: fmt.Sprintf("body %d", i), Kind: "comment"})
		for k := 0; k < (i*7)%(perAnn+1); k++ {
			att := Attachment{Annotation: id, Tuple: relational.TupleID{Table: "Gene", Key: fmt.Sprintf("s:jw%03d", (i*3+k*5)%23)}}
			switch k % 3 {
			case 0:
				att.Type, att.Confidence = TrueAttachment, 0.25 // Attach normalises this to 1
			case 1:
				att.Type, att.Confidence, att.Column = PredictedAttachment, float64(k)/10, "Name"
			default:
				att.Type, att.Tuple.Table = PredictedAttachment, "Protein"
			}
			es = append(es, att)
		}
	}
	return as, es
}

func addSequentially(t *testing.T, anns []Annotation, atts []Attachment) *Store {
	t.Helper()
	s := NewStore()
	for i := range anns {
		a := anns[i]
		if err := s.Add(&a); err != nil {
			t.Fatal(err)
		}
	}
	for _, att := range atts {
		if _, err := s.Attach(att); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func requireSameStore(t *testing.T, got, want *Store) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"annotations", got.annotations, want.annotations},
		{"insertion order", got.order, want.order},
		{"per-annotation edge lists", got.byAnnotation, want.byAnnotation},
		{"per-tuple edge lists", got.byTuple, want.byTuple},
		{"edge count", got.edgeCount, want.edgeCount},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s differ", c.name)
		}
	}
}

func TestLoadStoreMatchesSequentialAttach(t *testing.T) {
	for _, n := range []int{0, 2, 40} {
		anns, atts := loadInputs(n, 5)
		want := addSequentially(t, anns, atts)
		as, es := loadInputs(n, 5)
		got, err := LoadStore(as, es)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStore(t, got, want)
		if n == 0 {
			continue
		}

		// The loaded store is live: the same mutations leave the same
		// state as on the sequential one.
		for _, s := range []*Store{got, want} {
			tuple := es[0].Tuple
			if err := s.Add(&Annotation{ID: "late", Body: "x"}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Attach(Attachment{Annotation: "late", Tuple: tuple, Type: TrueAttachment}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Attach(Attachment{Annotation: es[0].Annotation, Tuple: relational.TupleID{Table: "Gene", Key: "s:new"}, Type: PredictedAttachment, Confidence: 0.5}); err != nil {
				t.Fatal(err)
			}
			s.Detach(es[len(es)-1].Annotation, es[len(es)-1].Tuple)
			s.DetachTuple(tuple)
		}
		requireSameStore(t, got, want)
	}
}

func TestLoadStoreRejectsWhatAddAndAttachReject(t *testing.T) {
	gene := relational.TupleID{Table: "Gene", Key: "s:jw1"}
	for name, c := range map[string]struct {
		anns []Annotation
		atts []Attachment
	}{
		"empty id":            {anns: []Annotation{{ID: ""}}},
		"repeated id":         {anns: []Annotation{{ID: "a"}, {ID: "b"}, {ID: "a"}}},
		"unknown annotation":  {anns: []Annotation{{ID: "a"}}, atts: []Attachment{{Annotation: "b", Tuple: gene}}},
		"confidence of 1":     {anns: []Annotation{{ID: "a"}}, atts: []Attachment{{Annotation: "a", Tuple: gene, Type: PredictedAttachment, Confidence: 1}}},
		"negative confidence": {anns: []Annotation{{ID: "a"}}, atts: []Attachment{{Annotation: "a", Tuple: gene, Type: PredictedAttachment, Confidence: -0.1}}},
		"second edge": {anns: []Annotation{{ID: "a"}}, atts: []Attachment{
			{Annotation: "a", Tuple: gene, Type: PredictedAttachment, Confidence: 0.1},
			{Annotation: "a", Tuple: gene, Type: TrueAttachment},
		}},
	} {
		if _, err := LoadStore(c.anns, c.atts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
