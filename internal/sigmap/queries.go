package sigmap

import (
	"strconv"

	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/textutil"
)

// Query is the generated keyword search query type; it is exactly the
// keyword package's query so Stage 2 can execute it without conversion.
type Query = keyword.Query

// ConceptMapToQueries implements Figure 4(d): walk the emphasized keywords,
// form the best match each one's best mapping can participate in within its
// influence range (Type-1, else Type-2, else Type-3), and emit one keyword
// query per match. A value keyword that cannot form any match in range
// falls back to the backward search of Lines 8–12 (the "concept mentioned
// once earlier in the text" special case). Duplicates are eliminated
// keeping the highest weight, and weights are normalized into [0,1].
func (g *Generator) ConceptMapToQueries(cm *ContextMap) []Query {
	var raw []candidateQuery
	var neighbors []*Entry
	for _, wi := range cm.entryIndexes() {
		entry := cm.Entries[wi]
		best := entry.Best()
		if best == nil {
			continue
		}
		neighbors = cm.AppendEntriesInRange(neighbors[:0], wi, g.Alpha)
		if q, ok := g.bestMatchQuery(entry, best, neighbors); ok {
			if g.isSelective(q) {
				raw = append(raw, q)
			}
			continue
		}
		// Lines 8-12: a value keyword with no usable concept in range
		// searches backward for the closest concept keyword.
		if best.Kind == KindValue {
			if q, ok := g.backwardConceptQuery(cm, wi, best); ok && g.isSelective(q) {
				raw = append(raw, q)
			}
		}
	}
	return finalizeQueries(raw)
}

// candidateQuery is a query before deduplication and normalization.
type candidateQuery struct {
	keywords []keyword.Keyword
	weight   float64
}

// sameAs reports whether c and o are the same query for duplicate
// elimination: their keywords pair off one to one with the same role and
// fold-equal target table, target column and text.
func (c candidateQuery) sameAs(o candidateQuery) bool {
	n := len(c.keywords)
	if n != len(o.keywords) {
		return false
	}
	// used marks o's keywords already paired; the pairing is an
	// equivalence, so pairing greedily decides multiset equality.
	var stack [8]bool
	used := stack[:]
	if n > len(stack) {
		used = make([]bool, n)
	}
	for _, k := range c.keywords {
		found := false
		for j := range o.keywords {
			m := &o.keywords[j]
			if !used[j] && k.Role == m.Role && textutil.LowerEqual(k.Text, m.Text) &&
				textutil.LowerEqual(k.TargetColumn, m.TargetColumn) && textutil.LowerEqual(k.TargetTable, m.TargetTable) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// bestMatchQuery forms the strongest match the given mapping can join with
// its neighbors' mappings: Type-1 {table, column, value}, else Type-2
// {table, value}, else Type-3 {column, value}.
func (g *Generator) bestMatchQuery(entry *Entry, best *Mapping, neighbors []*Entry) (candidateQuery, bool) {
	switch best.Kind {
	case KindValue:
		tblEntry, tblMap := findMapping(neighbors, KindTable, best.Table, "")
		colEntry, colMap := findMapping(neighbors, KindColumn, best.Table, best.Column)
		// ConceptRefs combination alternatives ({PName, PType}): if the
		// value's column co-references with siblings and a sibling value
		// stands in range, fold it into the query — the reference is the
		// column combination, not the lone value (§5.1, source 6).
		combo := g.combinationKeywords(entry, best, neighbors)
		if tblEntry != nil && colEntry != nil && tblEntry != colEntry {
			return makeQuery(append([]keyword.Keyword{
				kw(tblEntry, tblMap), kw(colEntry, colMap), kw(entry, best)}, combo...)...), true
		}
		if tblEntry != nil {
			return makeQuery(append([]keyword.Keyword{
				kw(tblEntry, tblMap), kw(entry, best)}, combo...)...), true
		}
		if colEntry != nil {
			return makeQuery(append([]keyword.Keyword{
				kw(colEntry, colMap), kw(entry, best)}, combo...)...), true
		}
	case KindTable:
		// Drive from the concept side: find a value (and optionally a
		// column) in range on the same table.
		valEntry, valMap := findMapping(neighbors, KindValue, best.Table, "")
		if valEntry == nil {
			return candidateQuery{}, false
		}
		colEntry, colMap := findMapping(neighbors, KindColumn, valMap.Table, valMap.Column)
		if colEntry != nil && colEntry != valEntry {
			return makeQuery(kw(entry, best), kw(colEntry, colMap), kw(valEntry, valMap)), true
		}
		return makeQuery(kw(entry, best), kw(valEntry, valMap)), true
	case KindColumn:
		valEntry, valMap := findMapping(neighbors, KindValue, best.Table, best.Column)
		if valEntry == nil {
			return candidateQuery{}, false
		}
		tblEntry, tblMap := findMapping(neighbors, KindTable, best.Table, "")
		if tblEntry != nil && tblEntry != valEntry {
			return makeQuery(kw(tblEntry, tblMap), kw(entry, best), kw(valEntry, valMap)), true
		}
		return makeQuery(kw(entry, best), kw(valEntry, valMap)), true
	}
	return candidateQuery{}, false
}

// backwardConceptQuery implements the special case of §5.2.3: the concept
// keyword may appear once, earlier in the text, and not repeat before each
// value ("...the keyword gene is not repeated before JW0014 or grpC...").
// Starting at the value's position, scan backward for the closest concept
// keyword that can form a Type-2 or Type-3 match with the value's best
// mapping and emit the pair; if no earlier concept is compatible, the value
// is ignored. (The scan skips over compatible-kind-but-wrong-target
// concepts — in "gene id JW00049 and aacC" the name-valued aacC must reach
// past the GID-mapped "id" back to "gene".)
func (g *Generator) backwardConceptQuery(cm *ContextMap, wi int, best *Mapping) (candidateQuery, bool) {
	for i := wi - 1; i >= 0; i-- {
		e, ok := cm.Entries[i]
		if !ok {
			continue
		}
		if m := pickMapping(e, KindTable, best.Table, ""); m != nil {
			return makeQuery(kw(e, m), kwFromValue(cm, wi, best)), true
		}
		if m := pickMapping(e, KindColumn, best.Table, best.Column); m != nil {
			return makeQuery(kw(e, m), kwFromValue(cm, wi, best)), true
		}
	}
	return candidateQuery{}, false
}

// isSelective reports whether at least one of the query's value keywords
// targets a column selective enough to identify tuples (see
// Generator.MinSelectivity). Queries over category-like columns alone are
// dropped: they select table slices, not embedded references.
func (g *Generator) isSelective(q candidateQuery) bool {
	if g.MinSelectivity <= 0 {
		return true
	}
	for _, k := range q.keywords {
		if k.Role != keyword.RoleValue {
			continue
		}
		if g.columnSelectivity(k.TargetTable, k.TargetColumn) >= g.MinSelectivity {
			return true
		}
	}
	return false
}

// combinationKeywords finds, for a value mapping whose column participates
// in multi-column referencing alternatives, the in-range value keywords of
// the sibling columns. The owning entry itself never contributes.
func (g *Generator) combinationKeywords(entry *Entry, best *Mapping, neighbors []*Entry) []keyword.Keyword {
	siblings := g.Meta.CombinationSiblings(meta.ColumnRef{Table: best.Table, Column: best.Column})
	var out []keyword.Keyword
	for _, sib := range siblings {
		e, m := findMapping(neighbors, KindValue, sib.Table, sib.Column)
		if e == nil || e == entry {
			continue
		}
		out = append(out, kw(e, m))
	}
	return out
}

// findMapping finds, among the neighbor entries, the highest-weight mapping
// of the requested kind consistent with (table[, column]). It returns the
// owning entry and the mapping, or nils.
func findMapping(neighbors []*Entry, kind MappingKind, table, column string) (*Entry, *Mapping) {
	var bestEntry *Entry
	var bestMapping *Mapping
	for _, e := range neighbors {
		if m := pickMapping(e, kind, table, column); m != nil {
			if bestMapping == nil || m.Weight > bestMapping.Weight {
				bestEntry, bestMapping = e, m
			}
		}
	}
	return bestEntry, bestMapping
}

// pickMapping returns the entry's highest-weight mapping of the requested
// kind and target, or nil.
func pickMapping(e *Entry, kind MappingKind, table, column string) *Mapping {
	var best *Mapping
	for i := range e.Mappings {
		m := &e.Mappings[i]
		if m.Kind != kind {
			continue
		}
		if table != "" && !equalFold(m.Table, table) {
			continue
		}
		if column != "" && kind != KindTable && !equalFold(m.Column, column) {
			continue
		}
		if kind == KindValue && column == "" {
			// Any value domain on the table qualifies.
		}
		if best == nil || m.Weight > best.Weight {
			best = m
		}
	}
	return best
}

// kw converts an (entry, mapping) pair into a keyword with execution hints.
func kw(e *Entry, m *Mapping) keyword.Keyword {
	role := keyword.RoleValue
	switch m.Kind {
	case KindTable:
		role = keyword.RoleTable
	case KindColumn:
		role = keyword.RoleColumn
	}
	return keyword.Keyword{
		Text:         e.Token.Text,
		Role:         role,
		TargetTable:  m.Table,
		TargetColumn: m.Column,
		Weight:       m.Weight,
	}
}

func kwFromValue(cm *ContextMap, wi int, m *Mapping) keyword.Keyword {
	return kw(cm.Entries[wi], m)
}

func makeQuery(kws ...keyword.Keyword) candidateQuery {
	total := 0.0
	for _, k := range kws {
		total += k.Weight
	}
	return candidateQuery{keywords: kws, weight: total}
}

// finalizeQueries deduplicates (keeping the highest weight per structural
// identity, see candidateQuery.sameAs) and normalizes weights into [0,1]
// relative to the maximum (Lines 15-16 of Figure 4d).
func finalizeQueries(raw []candidateQuery) []Query {
	var kept []candidateQuery
next:
	for _, c := range raw {
		for i := range kept {
			if kept[i].sameAs(c) {
				if c.weight > kept[i].weight {
					kept[i] = c
				}
				continue next
			}
		}
		kept = append(kept, c)
	}
	maxW := 0.0
	for _, c := range kept {
		if c.weight > maxW {
			maxW = c.weight
		}
	}
	out := make([]Query, len(kept))
	for i, c := range kept {
		w := 1.0
		if maxW > 0 {
			w = c.weight / maxW
		}
		out[i] = Query{
			ID:       "q" + strconv.Itoa(i+1),
			Keywords: c.keywords,
			Weight:   w,
		}
	}
	return out
}
