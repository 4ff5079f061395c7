package sigmap

import (
	"context"
	"fmt"
	"slices"
	"time"

	"nebula/internal/meta"
	"nebula/internal/textutil"
	"nebula/internal/trace"
)

// Generator runs the QueryGeneration() algorithm of Figure 4(a).
type Generator struct {
	// Meta is the NebulaMeta repository to consult.
	Meta *meta.Repository
	// Epsilon is the cutoff threshold ε: a word is emphasized only if some
	// mapping weight reaches it (§5.2.1). The paper evaluates 0.4/0.6/0.8.
	Epsilon float64
	// Alpha is the influence range size α in words on each side (§5.2.2).
	Alpha int
	// Beta1..Beta3 are the context rewards for Type-1/2/3 matches, as
	// fractions (0.5 = +50%); the paper requires Beta3 < Beta2 < Beta1.
	Beta1, Beta2, Beta3 float64
	// MaxWeight caps an adjusted mapping weight to keep repeated rewards
	// bounded. Query weights are normalized afterwards anyway.
	MaxWeight float64
	// MinSelectivity is the minimum distinct-values/rows ratio a query's
	// best value column must reach. A query whose value keywords all
	// target low-selectivity columns (e.g. a protein-type word alone)
	// would select a large slice of a table rather than identify a tuple —
	// it is a category, not an embedded reference. Such keywords still
	// participate in queries through combination siblings (PName + PType).
	MinSelectivity float64
	// MaxQueries caps the number of generated queries — the Stage 1 half
	// of the discovery budget. When the cap bites, the highest-weight
	// queries are kept (in generation order) and the truncation is
	// recorded in Stats.Degraded. 0 means unlimited.
	MaxQueries int
}

// NewGenerator returns a Generator with the paper-inspired defaults.
func NewGenerator(repo *meta.Repository, epsilon float64) *Generator {
	return &Generator{
		Meta:           repo,
		Epsilon:        epsilon,
		Alpha:          3,
		Beta1:          0.5,
		Beta2:          0.3,
		Beta3:          0.15,
		MaxWeight:      2.0,
		MinSelectivity: 0.5,
	}
}

// columnSelectivity returns distinct/rows for a column, via the
// repository's shared statistics cache (generators are created per
// annotation; the statistics must not be recomputed each time).
func (g *Generator) columnSelectivity(table, column string) float64 {
	return g.Meta.ColumnSelectivity(meta.ColumnRef{Table: table, Column: column})
}

// Stats reports the work and phase timings of one generation run; the
// Figure 11 experiments consume these directly.
type Stats struct {
	// Tokens is the annotation's token count.
	Tokens int
	// ConceptEntries counts words emphasized in the Concept-Map.
	ConceptEntries int
	// ValueEntries counts words emphasized in the Value-Map.
	ValueEntries int
	// Queries counts the generated keyword queries after deduplication.
	Queries int
	// MapGeneration is the time of phase 1 (both signature maps).
	MapGeneration time.Duration
	// ContextAdjustment is the time of phase 2 (overlay + adjustment).
	ContextAdjustment time.Duration
	// QueryGeneration is the time of phase 3 (query formation).
	QueryGeneration time.Duration
	// Degraded lists human-readable reasons the generation deviated from
	// the unbounded run (currently only the MaxQueries truncation). Empty
	// for a complete run.
	Degraded []string
}

// Generate runs the full pipeline on an annotation body and returns the
// keyword queries with the run's statistics.
func (g *Generator) Generate(body string) ([]Query, Stats) {
	return g.GenerateContext(context.Background(), body)
}

// GenerateContext is Generate with request-scoped tracing: when ctx carries
// a trace span, the three phases of Figure 4(a) become child spans with
// their token/entry/query counters. Tracing is observe-only — the returned
// queries and stats are identical to Generate's.
func (g *Generator) GenerateContext(ctx context.Context, body string) ([]Query, Stats) {
	var stats Stats

	span, _ := trace.StartSpan(ctx, "map")
	start := time.Now()
	tokens := textutil.Tokenize(body)
	stats.Tokens = len(tokens)
	conceptMap := g.ConceptMap(tokens)
	valueMap := g.ValueMap(tokens)
	stats.ConceptEntries = len(conceptMap)
	stats.ValueEntries = len(valueMap)
	stats.MapGeneration = time.Since(start)
	if span.Enabled() {
		span.AddInt("tokens", stats.Tokens)
		span.AddInt("concept_entries", stats.ConceptEntries)
		span.AddInt("value_entries", stats.ValueEntries)
		span.End()
	}

	span, _ = trace.StartSpan(ctx, "adjust_context")
	start = time.Now()
	cm := Overlay(tokens, conceptMap, valueMap)
	g.ContextBasedAdjustment(cm)
	stats.ContextAdjustment = time.Since(start)
	span.End()

	span, _ = trace.StartSpan(ctx, "form_queries")
	start = time.Now()
	queries := g.ConceptMapToQueries(cm)
	if g.MaxQueries > 0 && len(queries) > g.MaxQueries {
		kept := truncateByWeight(queries, g.MaxQueries)
		stats.Degraded = append(stats.Degraded, fmt.Sprintf(
			"sigmap: query budget truncated generation from %d to %d queries (highest-weight kept)",
			len(queries), len(kept)))
		queries = kept
	}
	stats.QueryGeneration = time.Since(start)
	stats.Queries = len(queries)
	if span.Enabled() {
		span.AddInt("queries", stats.Queries)
		span.End()
	}
	return queries, stats
}

// truncateByWeight keeps the n highest-weight queries, preserving their
// original (deterministic) generation order; ties at the cut keep the
// earlier query.
func truncateByWeight(queries []Query, n int) []Query {
	idx := make([]int, len(queries))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return descending(queries[a].Weight, queries[b].Weight)
	})
	keep := make(map[int]bool, n)
	for _, i := range idx[:n] {
		keep[i] = true
	}
	out := make([]Query, 0, n)
	for i, q := range queries {
		if keep[i] {
			out = append(out, q)
		}
	}
	return out
}

// ConceptMap builds the Concept-Map (Step 1 of Figure 4a): words with a
// potential mapping to a table or column name listed in ConceptRefs. A word
// is emphasized iff its best p(w,c) reaches ε; mappings below ε are pruned.
func (g *Generator) ConceptMap(tokens []textutil.Token) map[int]*Entry {
	out := make(map[int]*Entry)
	for _, tok := range tokens {
		if textutil.IsStopword(tok.Lower) {
			continue
		}
		matches := g.Meta.ConceptMatchesLowered(tok.Text, tok.Lower)
		var mappings []Mapping
		for _, m := range matches {
			if m.Weight < g.Epsilon {
				continue
			}
			kind := KindTable
			if m.Element.Kind == meta.ColumnElement {
				kind = KindColumn
			}
			mappings = append(mappings, Mapping{
				Kind:   kind,
				Table:  m.Element.Table,
				Column: m.Element.Column,
				Weight: m.Weight,
			})
		}
		if len(mappings) > 0 {
			sortMappings(mappings)
			out[tok.Index] = &Entry{Token: tok, Mappings: mappings}
		}
	}
	return out
}

// ValueMap builds the Value-Map (Step 2): words with a potential mapping to
// the value domain of a ConceptRefs target column, cutoff at ε.
func (g *Generator) ValueMap(tokens []textutil.Token) map[int]*Entry {
	out := make(map[int]*Entry)
	var matches []meta.ValueMatch // reused across the tokens
	for _, tok := range tokens {
		if textutil.IsStopword(tok.Lower) {
			continue
		}
		var mappings []Mapping
		matches = g.Meta.AppendValueMatchesLowered(matches[:0], tok.Text, tok.Lower)
		for _, m := range matches {
			if m.Weight < g.Epsilon {
				continue
			}
			mappings = append(mappings, Mapping{
				Kind:   KindValue,
				Table:  m.Column.Table,
				Column: m.Column.Column,
				Weight: m.Weight,
			})
		}
		if len(mappings) > 0 {
			sortMappings(mappings)
			out[tok.Index] = &Entry{Token: tok, Mappings: mappings}
		}
	}
	return out
}

// Overlay merges the two signature maps into the Context-Map (Step 3): a
// word emphasized in both maps carries both mapping sets.
func Overlay(tokens []textutil.Token, conceptMap, valueMap map[int]*Entry) *ContextMap {
	cm := &ContextMap{Tokens: tokens, Entries: make(map[int]*Entry)}
	for i, e := range conceptMap {
		clone := &Entry{Token: e.Token, Mappings: append([]Mapping(nil), e.Mappings...)}
		cm.Entries[i] = clone
	}
	for i, e := range valueMap {
		if existing, ok := cm.Entries[i]; ok {
			existing.Mappings = append(existing.Mappings, e.Mappings...)
			sortMappings(existing.Mappings)
			continue
		}
		cm.Entries[i] = &Entry{Token: e.Token, Mappings: append([]Mapping(nil), e.Mappings...)}
	}
	return cm
}

// ContextBasedAdjustment implements Figure 17: every mapping of every
// emphasized word is rewarded according to the strongest match type it can
// form with mappings of neighboring words inside the influence range —
// +β1% per Type-1 match ({table, column, value}); otherwise +β2% per Type-2
// match ({table, value}); otherwise +β3% per Type-3 match ({column,
// value}). Rewards are computed against a snapshot of the incoming weights
// so the outcome does not depend on word order.
func (g *Generator) ContextBasedAdjustment(cm *ContextMap) {
	type adj struct {
		entry *Entry
		idx   int
		mult  float64
	}
	var adjustments []adj
	var neighbors []*Entry
	for _, wi := range cm.entryIndexes() {
		entry := cm.Entries[wi]
		neighbors = cm.AppendEntriesInRange(neighbors[:0], wi, g.Alpha)
		for mi := range entry.Mappings {
			m := &entry.Mappings[mi]
			if n := countType1(m, neighbors); n > 0 {
				adjustments = append(adjustments, adj{entry, mi, 1 + g.Beta1*float64(n)})
				continue
			}
			if n := countType2(m, neighbors); n > 0 {
				adjustments = append(adjustments, adj{entry, mi, 1 + g.Beta2*float64(n)})
				continue
			}
			if n := countType3(m, neighbors); n > 0 {
				adjustments = append(adjustments, adj{entry, mi, 1 + g.Beta3*float64(n)})
			}
		}
	}
	for _, a := range adjustments {
		w := a.entry.Mappings[a.idx].Weight * a.mult
		if w > g.MaxWeight {
			w = g.MaxWeight
		}
		a.entry.Mappings[a.idx].Weight = w
	}
	for _, e := range cm.Entries {
		sortMappings(e.Mappings)
	}
}

// countType1 counts Type-1 matches mapping m can form: m plus a neighbor
// pair supplying the two missing shapes of {table, column, value}, all
// referring to the same table, with the value's domain column equal to the
// column-shape's column.
func countType1(m *Mapping, neighbors []*Entry) int {
	count := 0
	switch m.Kind {
	case KindTable:
		// Need a column mapping and a value mapping on that same column.
		for i, a := range neighbors {
			for _, ma := range a.Mappings {
				if ma.Kind != KindColumn || !equalFold(ma.Table, m.Table) {
					continue
				}
				for j, b := range neighbors {
					if i == j {
						continue
					}
					for _, mb := range b.Mappings {
						if mb.Kind == KindValue && equalFold(mb.Table, m.Table) && equalFold(mb.Column, ma.Column) {
							count++
						}
					}
				}
			}
		}
	case KindColumn:
		for i, a := range neighbors {
			for _, ma := range a.Mappings {
				if ma.Kind != KindTable || !equalFold(ma.Table, m.Table) {
					continue
				}
				for j, b := range neighbors {
					if i == j {
						continue
					}
					for _, mb := range b.Mappings {
						if mb.Kind == KindValue && equalFold(mb.Table, m.Table) && equalFold(mb.Column, m.Column) {
							count++
						}
					}
				}
			}
		}
	case KindValue:
		for i, a := range neighbors {
			for _, ma := range a.Mappings {
				if ma.Kind != KindTable || !equalFold(ma.Table, m.Table) {
					continue
				}
				for j, b := range neighbors {
					if i == j {
						continue
					}
					for _, mb := range b.Mappings {
						if mb.Kind == KindColumn && equalFold(mb.Table, m.Table) && equalFold(mb.Column, m.Column) {
							count++
						}
					}
				}
			}
		}
	}
	return count
}

// countType2 counts Type-2 matches: {table, value} on the same table.
func countType2(m *Mapping, neighbors []*Entry) int {
	count := 0
	for _, n := range neighbors {
		for _, mn := range n.Mappings {
			switch {
			case m.Kind == KindTable && mn.Kind == KindValue && equalFold(mn.Table, m.Table):
				count++
			case m.Kind == KindValue && mn.Kind == KindTable && equalFold(mn.Table, m.Table):
				count++
			}
		}
	}
	return count
}

// countType3 counts Type-3 matches: {column, value} on the same column.
func countType3(m *Mapping, neighbors []*Entry) int {
	count := 0
	for _, n := range neighbors {
		for _, mn := range n.Mappings {
			switch {
			case m.Kind == KindColumn && mn.Kind == KindValue && equalFold(mn.Table, m.Table) && equalFold(mn.Column, m.Column):
				count++
			case m.Kind == KindValue && mn.Kind == KindColumn && equalFold(mn.Table, m.Table) && equalFold(mn.Column, m.Column):
				count++
			}
		}
	}
	return count
}

func sortMappings(ms []Mapping) {
	slices.SortStableFunc(ms, func(a, b Mapping) int { return descending(a.Weight, b.Weight) })
}

// descending orders weights from high to low, as the comparator a > b did
// for sort.SliceStable.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case b > a:
		return 1
	}
	return 0
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
