package annotation

import (
	"fmt"

	"nebula/internal/relational"
)

// LoadStore builds a store from whole lists: the state that Add for every
// annotation of anns, then Attach for every edge of atts, would leave, with
// the same insertion order and the same order inside every per-annotation
// and per-tuple edge list. It applies Add's and Attach's checks once per
// entry, sizes the maps once and cuts every edge list to its final length
// out of one slab. Where Attach merges a second edge between the same
// annotation and tuple into the first, LoadStore rejects it: a dumped store
// never holds two.
//
// The store keeps pointers into anns and atts; the caller hands both over.
func LoadStore(anns []Annotation, atts []Attachment) (*Store, error) {
	s := &Store{
		annotations:  make(map[ID]*Annotation, len(anns)),
		byAnnotation: make(map[ID][]*Attachment, len(anns)),
		edgeCount:    len(atts),
	}
	if len(anns) > 0 {
		s.order = make([]ID, 0, len(anns))
	}
	position := make(map[ID]int32, len(anns))
	for i := range anns {
		a := &anns[i]
		if a.ID == "" {
			return nil, fmt.Errorf("annotation: empty id")
		}
		position[a.ID] = int32(i)
		if len(position) != i+1 {
			return nil, fmt.Errorf("annotation %q already exists", a.ID)
		}
		s.annotations[a.ID] = a
		s.order = append(s.order, a.ID)
	}

	// First pass: check every edge and count the lists it lands in.
	tuples := make(map[relational.TupleID]int32, len(atts)/2)
	pairs := make(map[uint64]struct{}, len(atts)) // annotation<<32 | tuple
	annOf, tupleOf := make([]int32, len(atts)), make([]int32, len(atts))
	annCount := make([]int32, len(anns))
	var tupleCount []int32
	for i := range atts {
		att := &atts[i]
		ai, ok := position[att.Annotation]
		if !ok {
			return nil, fmt.Errorf("attach: unknown annotation %q", att.Annotation)
		}
		if att.Type == TrueAttachment {
			att.Confidence = 1
		} else if att.Confidence < 0 || att.Confidence >= 1 {
			return nil, fmt.Errorf("attach: predicted confidence %f outside [0,1)", att.Confidence)
		}
		ti, ok := tuples[att.Tuple]
		if !ok {
			ti = int32(len(tupleCount))
			tuples[att.Tuple] = ti
			tupleCount = append(tupleCount, 0)
		}
		pairs[uint64(ai)<<32|uint64(ti)] = struct{}{}
		if len(pairs) != i+1 {
			return nil, fmt.Errorf("attach: second edge %s -> %s", att.Annotation, att.Tuple)
		}
		annOf[i], tupleOf[i] = ai, ti
		annCount[ai]++
		tupleCount[ti]++
	}

	// Second pass: every list is a capped window of one slab, filled in
	// edge order. next[k] ends up at the end of list k.
	fill := func(of, count []int32) (slab []*Attachment, next []int32) {
		slab, next = make([]*Attachment, len(atts)), make([]int32, len(count))
		var off int32
		for k, c := range count {
			next[k] = off
			off += c
		}
		for i := range atts {
			slab[next[of[i]]] = &atts[i]
			next[of[i]]++
		}
		return slab, next
	}
	window := func(slab []*Attachment, end, n int32) []*Attachment { return slab[end-n : end : end] }

	slab, next := fill(annOf, annCount)
	for i := range anns {
		if annCount[i] > 0 {
			s.byAnnotation[anns[i].ID] = window(slab, next[i], annCount[i])
		}
	}
	slab, next = fill(tupleOf, tupleCount)
	s.byTuple = make(map[relational.TupleID][]*Attachment, len(tuples))
	for t, ti := range tuples {
		s.byTuple[t] = window(slab, next[ti], tupleCount[ti])
	}
	return s, nil
}
