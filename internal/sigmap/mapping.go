// Package sigmap implements Stage 1 of Nebula (§5 of the paper): analyzing
// an annotation's text against the NebulaMeta repository, building the
// Concept-Map and Value-Map signature maps, overlaying them into the
// Context-Map, adjusting mapping weights by surrounding context
// (ContextBasedAdjustment, Figure 17), and generating weighted keyword
// search queries from the adjusted map (ConceptMap-To-Queries, Figure 4d).
package sigmap

import (
	"fmt"

	"nebula/internal/textutil"
)

// MappingKind mirrors the paper's shape notation for Context-Map entries.
type MappingKind int

const (
	// KindTable is a potential mapping to a table name (rectangle).
	KindTable MappingKind = iota
	// KindColumn is a potential mapping to a column name (triangle).
	KindColumn
	// KindValue is a potential mapping to a column's value domain (hexagon).
	KindValue
)

func (k MappingKind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindColumn:
		return "column"
	case KindValue:
		return "value"
	default:
		return fmt.Sprintf("MappingKind(%d)", int(k))
	}
}

// Mapping is one potential interpretation of an emphasized word: p(w,c) for
// concept mappings, d(w,c) for value mappings.
type Mapping struct {
	Kind   MappingKind
	Table  string
	Column string // empty for KindTable
	// Weight is the mapping's current weight; context adjustment mutates
	// it upward from the initial p/d estimate.
	Weight float64
}

func (m Mapping) String() string {
	switch m.Kind {
	case KindTable:
		return fmt.Sprintf("[%s %.2f]", m.Table, m.Weight)
	case KindColumn:
		return fmt.Sprintf("<%s.%s %.2f>", m.Table, m.Column, m.Weight)
	default:
		return fmt.Sprintf("{%s.%s %.2f}", m.Table, m.Column, m.Weight)
	}
}

// Entry is an emphasized word of a signature map: a token that survived the
// ε cutoff together with its candidate mappings (strongest first).
type Entry struct {
	// Token is the underlying annotation token (position included).
	Token textutil.Token
	// Mappings are the candidate interpretations, sorted by descending
	// weight; re-sorted after context adjustment.
	Mappings []Mapping
}

// Best returns the entry's highest-weight mapping.
func (e *Entry) Best() *Mapping {
	if len(e.Mappings) == 0 {
		return nil
	}
	best := &e.Mappings[0]
	for i := 1; i < len(e.Mappings); i++ {
		if e.Mappings[i].Weight > best.Weight {
			best = &e.Mappings[i]
		}
	}
	return best
}

// hasKind reports whether the entry has any mapping of the given kind.
func (e *Entry) hasKind(k MappingKind) bool {
	for _, m := range e.Mappings {
		if m.Kind == k {
			return true
		}
	}
	return false
}

// ContextMap is the overlay of the Concept-Map and Value-Map (§5.2.1 step
// 3): the token stream of the annotation with the emphasized words and
// their mappings. Non-emphasized words appear only through Tokens — they
// are the '—' positions of Figure 4(b), needed to measure word distances.
type ContextMap struct {
	// Tokens is the full token stream of the annotation.
	Tokens []textutil.Token
	// Entries maps token index -> emphasized entry.
	Entries map[int]*Entry
}

// AppendEntriesInRange appends to out the emphasized entries other than
// center whose token index lies within alpha words of center, in increasing
// index order, and returns the extended slice.
func (cm *ContextMap) AppendEntriesInRange(out []*Entry, center, alpha int) []*Entry {
	for i := center - alpha; i <= center+alpha; i++ {
		if i == center {
			continue
		}
		if e, ok := cm.Entries[i]; ok {
			out = append(out, e)
		}
	}
	return out
}

// entryIndexes returns the sorted token indexes of emphasized words.
func (cm *ContextMap) entryIndexes() []int {
	out := make([]int, 0, len(cm.Entries))
	for i := range cm.Entries {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
