package annotation

import (
	"fmt"
	"sort"
	"sync"

	"nebula/internal/relational"
)

// Store holds annotations and their attachment edges, each edge listed once
// from the annotation side and once from the tuple side. It is the
// "existing annotation management engine" the Nebula prototype is realized
// on top of.
//
// Synchronization contract: the engine's sharded lock group is the Store's
// primary guard. The only Store mutations reachable while holding a single
// shard lock are Add and Attach (the AddAnnotation/async-ingest path), and
// the only read racing them is Get (async enqueue validation) — those three
// serialize on mu below. Every other method is called exclusively under
// contexts where the caller holds every shard (whole-group write or read
// lock), so they rely on that exclusion and take no internal lock.
type Store struct {
	// mu guards the annotations map, order slice, and edge lists against
	// the single-shard-locked paths (Add/Attach writes vs Get reads).
	mu sync.RWMutex

	annotations map[ID]*Annotation
	order       []ID // insertion order for deterministic iteration

	// byAnnotation lists each annotation's edges in attachment order.
	byAnnotation map[ID][]*Attachment
	// byTuple lists each tuple's edges in attachment order. The two lists
	// hold the same pointers; an (annotation, tuple) pair is found by
	// scanning the shorter of its two lists (see edge).
	byTuple map[relational.TupleID][]*Attachment
	// edgeCount is the number of edges, the length of either view.
	edgeCount int
}

// NewStore returns an empty annotation store.
func NewStore() *Store {
	return &Store{
		annotations:  make(map[ID]*Annotation),
		byAnnotation: make(map[ID][]*Attachment),
		byTuple:      make(map[relational.TupleID][]*Attachment),
	}
}

// Add registers an annotation. The ID must be unique.
func (s *Store) Add(a *Annotation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.ID == "" {
		return fmt.Errorf("annotation: empty id")
	}
	if _, dup := s.annotations[a.ID]; dup {
		return fmt.Errorf("annotation %q already exists", a.ID)
	}
	s.annotations[a.ID] = a
	s.order = append(s.order, a.ID)
	return nil
}

// Get returns the annotation by ID.
func (s *Store) Get(id ID) (*Annotation, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.annotations[id]
	return a, ok
}

// Len returns the number of annotations.
func (s *Store) Len() int { return len(s.annotations) }

// EdgeCount returns the number of (annotation, tuple) edges.
func (s *Store) EdgeCount() int { return s.edgeCount }

// IDs returns annotation IDs in insertion order.
func (s *Store) IDs() []ID {
	out := make([]ID, len(s.order))
	copy(out, s.order)
	return out
}

// Attach adds an attachment edge. If an edge between the same annotation and
// tuple already exists, the stronger claim wins: a true attachment replaces
// a predicted one, and a higher-confidence prediction replaces a lower one.
// The annotation must already be registered.
func (s *Store) Attach(att Attachment) (*Attachment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.annotations[att.Annotation]; !ok {
		return nil, fmt.Errorf("attach: unknown annotation %q", att.Annotation)
	}
	if att.Type == TrueAttachment {
		att.Confidence = 1
	} else if att.Confidence < 0 || att.Confidence >= 1 {
		return nil, fmt.Errorf("attach: predicted confidence %f outside [0,1)", att.Confidence)
	}
	if existing := s.edge(att.Annotation, att.Tuple); existing != nil {
		if existing.Type == TrueAttachment {
			return existing, nil
		}
		if att.Type == TrueAttachment || att.Confidence > existing.Confidence {
			existing.Type = att.Type
			existing.Confidence = att.Confidence
			existing.Column = att.Column
		}
		return existing, nil
	}
	stored := &Attachment{}
	*stored = att
	s.edgeCount++
	s.byAnnotation[att.Annotation] = append(s.byAnnotation[att.Annotation], stored)
	s.byTuple[att.Tuple] = append(s.byTuple[att.Tuple], stored)
	return stored, nil
}

// Detach removes the edge between an annotation and a tuple. It reports
// whether an edge was removed.
func (s *Store) Detach(id ID, tuple relational.TupleID) bool {
	att := s.edge(id, tuple)
	if att == nil {
		return false
	}
	s.edgeCount--
	s.byAnnotation[id] = removeAttachment(s.byAnnotation[id], att)
	if len(s.byAnnotation[id]) == 0 {
		delete(s.byAnnotation, id)
	}
	s.byTuple[tuple] = removeAttachment(s.byTuple[tuple], att)
	if len(s.byTuple[tuple]) == 0 {
		delete(s.byTuple, tuple)
	}
	return true
}

func removeAttachment(list []*Attachment, target *Attachment) []*Attachment {
	for i, a := range list {
		if a == target {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

// DetachTuple removes every attachment touching the tuple — the
// referential-integrity hook for tuple deletion. It returns the number of
// edges removed.
func (s *Store) DetachTuple(tuple relational.TupleID) int {
	atts := s.byTuple[tuple] // Detach swaps in a shortened copy; atts stays whole
	for _, att := range atts {
		s.Detach(att.Annotation, tuple)
	}
	return len(atts)
}

// Promote converts a predicted edge into a true attachment (confidence 1).
// This is what happens when a verification task is accepted (§7).
func (s *Store) Promote(id ID, tuple relational.TupleID) error {
	att := s.edge(id, tuple)
	if att == nil {
		return fmt.Errorf("promote: no edge %s -> %s", id, tuple)
	}
	att.Type = TrueAttachment
	att.Confidence = 1
	return nil
}

// Edge returns the attachment between an annotation and a tuple, if any.
func (s *Store) Edge(id ID, tuple relational.TupleID) (*Attachment, bool) {
	att := s.edge(id, tuple)
	return att, att != nil
}

// edge finds the attachment between an annotation and a tuple by scanning
// the shorter of the annotation's and the tuple's edge lists, so the cost
// is bounded by the tuple's annotations even for an annotation attached to
// thousands of tuples. It returns nil when there is none.
func (s *Store) edge(id ID, tuple relational.TupleID) *Attachment {
	list := s.byAnnotation[id]
	if byTuple := s.byTuple[tuple]; len(byTuple) < len(list) {
		list = byTuple
	}
	for _, att := range list {
		if att.Annotation == id && att.Tuple == tuple {
			return att
		}
	}
	return nil
}

// Attachments returns the edges of one annotation, optionally filtered by
// type. Pass -1 to return all.
func (s *Store) Attachments(id ID, filter AttachmentType) []*Attachment {
	var out []*Attachment
	for _, att := range s.byAnnotation[id] {
		if filter < 0 || att.Type == filter {
			out = append(out, att)
		}
	}
	return out
}

// TupleAnnotations returns the edges touching one tuple, optionally
// filtered by type. Pass -1 to return all.
func (s *Store) TupleAnnotations(tuple relational.TupleID, filter AttachmentType) []*Attachment {
	var out []*Attachment
	for _, att := range s.byTuple[tuple] {
		if filter < 0 || att.Type == filter {
			out = append(out, att)
		}
	}
	return out
}

// Focal returns Foc(a) — the tuples the annotation is attached to by true
// attachments (Definition 3.5).
func (s *Store) Focal(id ID) []relational.TupleID {
	atts := s.byAnnotation[id]
	n := 0
	for _, att := range atts {
		if att.Type == TrueAttachment {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]relational.TupleID, 0, n)
	for _, att := range atts {
		if att.Type == TrueAttachment {
			out = append(out, att.Tuple)
		}
	}
	return out
}

// AnnotatedTuples returns every tuple that has at least one attachment,
// sorted for determinism.
func (s *Store) AnnotatedTuples() []relational.TupleID {
	out := make([]relational.TupleID, 0, len(s.byTuple))
	for t := range s.byTuple {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TrueEdgeSet returns the set of (annotation, tuple) pairs connected by true
// attachments — the E of Definition 3.1 restricted to solid edges.
func (s *Store) TrueEdgeSet() map[EdgeKey]struct{} {
	out := make(map[EdgeKey]struct{})
	for _, atts := range s.byAnnotation {
		for _, att := range atts {
			if att.Type == TrueAttachment {
				out[att.edgeKey()] = struct{}{}
			}
		}
	}
	return out
}
