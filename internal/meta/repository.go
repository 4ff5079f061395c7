package meta

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"nebula/internal/relational"
	"nebula/internal/textutil"
)

// Repository is the NebulaMeta metadata store (§5.1). It aggregates the six
// auxiliary information sources the paper enumerates:
//
//  1. lexical knowledge (Lexicon),
//  2. equivalent names for tables/columns supplied by domain experts,
//  3. per-column ontologies (controlled vocabularies),
//  4. per-column syntactic value patterns (regular expressions),
//  5. random samples drawn from columns lacking ontologies/patterns,
//  6. the ConceptRefs table of key concepts and their referencing columns.
type Repository struct {
	db       *relational.Database
	lexicon  *Lexicon
	concepts []*Concept

	equivalents map[string][]string // lower(element name) -> equivalent names
	ontologies  map[string]map[string]struct{}
	patterns    map[string]*regexp.Regexp
	samples     map[string][]string

	statsMu     sync.Mutex
	selectivity []columnStat // one per column asked for, in first-asked order

	// compiled is the matcher snapshot of the fields above (see
	// matcher.go); nil until first use and after every mutation.
	compiled atomic.Pointer[matcher]
}

// NewRepository creates a NebulaMeta repository bound to a database catalog.
// The lexicon may be nil, in which case DefaultLexicon is used.
func NewRepository(db *relational.Database, lexicon *Lexicon) *Repository {
	if lexicon == nil {
		lexicon = DefaultLexicon()
	}
	return &Repository{
		db:          db,
		lexicon:     lexicon,
		equivalents: make(map[string][]string),
		ontologies:  make(map[string]map[string]struct{}),
		patterns:    make(map[string]*regexp.Regexp),
		samples:     make(map[string][]string),
	}
}

// Database returns the bound catalog.
func (r *Repository) Database() *relational.Database { return r.db }

// Lexicon returns the repository's synonym dictionary.
func (r *Repository) Lexicon() *Lexicon { return r.lexicon }

// AddConcept registers a ConceptRefs row. The referenced table and columns
// must exist in the catalog.
func (r *Repository) AddConcept(c *Concept) error {
	if err := c.Validate(); err != nil {
		return err
	}
	t, ok := r.db.Table(c.Table)
	if !ok {
		return fmt.Errorf("concept %s: unknown table %q", c.Name, c.Table)
	}
	for _, alt := range c.ReferencedBy {
		for _, col := range alt {
			if _, ok := t.Schema().ColumnIndex(col); !ok {
				return fmt.Errorf("concept %s: table %s has no column %q", c.Name, c.Table, col)
			}
		}
	}
	r.concepts = append(r.concepts, c)
	r.invalidateMatcher()
	return nil
}

// Concepts returns the registered concepts in insertion order.
func (r *Repository) Concepts() []*Concept { return r.concepts }

// TargetColumns returns the distinct columns appearing in any concept's
// referencing alternatives — the columns the Value-Map generator scans.
func (r *Repository) TargetColumns() []ColumnRef {
	seen := make(map[string]struct{})
	var out []ColumnRef
	for _, c := range r.concepts {
		for _, col := range c.Columns() {
			if _, dup := seen[col.key()]; dup {
				continue
			}
			seen[col.key()] = struct{}{}
			out = append(out, col)
		}
	}
	return out
}

// CombinationSiblings aggregates Concept.CombinationSiblings over every
// registered concept of the column's table: the columns that co-reference
// with the given column in some multi-column alternative.
func (r *Repository) CombinationSiblings(col ColumnRef) []ColumnRef {
	var out []ColumnRef
	seen := map[string]struct{}{}
	for _, c := range r.concepts {
		if !strings.EqualFold(c.Table, col.Table) {
			continue
		}
		for _, sib := range c.CombinationSiblings(col.Column) {
			if _, dup := seen[sib.key()]; dup {
				continue
			}
			seen[sib.key()] = struct{}{}
			out = append(out, sib)
		}
	}
	return out
}

// AddEquivalentNames records expert-supplied equivalent names for a schema
// element (a table name or a column name). For example "GID" ⇔ "Gene ID".
func (r *Repository) AddEquivalentNames(element string, equivalents ...string) {
	key := strings.ToLower(element)
	r.equivalents[key] = append(r.equivalents[key], equivalents...)
	// Keep the relation symmetric so "Gene ID" also resolves to "GID".
	for _, eq := range equivalents {
		r.equivalents[strings.ToLower(eq)] = append(r.equivalents[strings.ToLower(eq)], element)
	}
	r.invalidateMatcher()
}

// SetOntology attaches a controlled vocabulary to a column. Membership is
// case-insensitive.
func (r *Repository) SetOntology(col ColumnRef, terms []string) {
	set := make(map[string]struct{}, len(terms))
	for _, t := range terms {
		set[strings.ToLower(t)] = struct{}{}
	}
	r.ontologies[col.key()] = set
	r.invalidateMatcher()
}

// Ontology returns the vocabulary attached to a column, if any.
func (r *Repository) Ontology(col ColumnRef) (map[string]struct{}, bool) {
	o, ok := r.ontologies[col.key()]
	return o, ok
}

// SetPattern attaches a syntactic value pattern (anchored regular
// expression) to a column, e.g. `JW[0-9]{4}` for Gene.GID.
func (r *Repository) SetPattern(col ColumnRef, pattern string) error {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return fmt.Errorf("pattern for %s: %w", col, err)
	}
	r.patterns[col.key()] = re
	r.invalidateMatcher()
	return nil
}

// Pattern returns the compiled pattern attached to a column, if any.
func (r *Repository) Pattern(col ColumnRef) (*regexp.Regexp, bool) {
	p, ok := r.patterns[col.key()]
	return p, ok
}

// SetSample stores an explicit value sample for a column. The repository
// keeps the slice; callers must not modify it afterwards.
func (r *Repository) SetSample(col ColumnRef, values []string) {
	r.samples[col.key()] = values
	r.invalidateMatcher()
}

// Sample returns the stored sample of a column, if any.
func (r *Repository) Sample(col ColumnRef) ([]string, bool) {
	s, ok := r.samples[col.key()]
	return s, ok
}

// DrawSample draws up to n distinct row values uniformly from the column
// and stores them as the column's sample (§5.1, source 5). rng must not be
// nil so that experiments stay deterministic.
func (r *Repository) DrawSample(col ColumnRef, n int, rng *rand.Rand) error {
	t, ok := r.db.Table(col.Table)
	if !ok {
		return fmt.Errorf("sample: unknown table %q", col.Table)
	}
	ci, ok := t.Schema().ColumnIndex(col.Column)
	if !ok {
		return fmt.Errorf("sample: table %s has no column %q", col.Table, col.Column)
	}
	rows := t.Rows()
	if len(rows) == 0 {
		r.samples[col.key()] = nil
		r.invalidateMatcher()
		return nil
	}
	// Reservoir sampling keeps the draw uniform without copying the table.
	reservoir := make([]string, 0, n)
	for i, row := range rows {
		v := row.Values[ci].Str()
		if len(reservoir) < n {
			reservoir = append(reservoir, v)
			continue
		}
		if j := rng.Intn(i + 1); j < n {
			reservoir[j] = v
		}
	}
	r.samples[col.key()] = reservoir
	r.invalidateMatcher()
	return nil
}

// columnStat is a column's cached distinct-values/rows ratio.
type columnStat struct {
	col         ColumnRef
	selectivity float64
}

// ColumnSelectivity returns the column's distinct-values/rows ratio, the
// statistic the query generator uses to recognize category-like columns.
// The value is computed on the column's first request (which may scan the
// table) and kept for the repository's lifetime; names compare
// case-insensitively, so every spelling of a column shares one entry. The
// cache holds one entry per column asked for, a handful, so a walk finds
// one without building a key.
func (r *Repository) ColumnSelectivity(col ColumnRef) float64 {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	for i := range r.selectivity {
		st := &r.selectivity[i]
		if textutil.LowerEqual(st.col.Column, col.Column) && textutil.LowerEqual(st.col.Table, col.Table) {
			return st.selectivity
		}
	}
	s := 0.0
	if t, ok := r.db.Table(col.Table); ok && t.Len() > 0 {
		s = float64(t.DistinctCount(col.Column)) / float64(t.Len())
	}
	r.selectivity = append(r.selectivity, columnStat{col: col, selectivity: s})
	return s
}

// ColumnType returns the declared type of a column.
func (r *Repository) ColumnType(col ColumnRef) (relational.Type, bool) {
	t, ok := r.db.Table(col.Table)
	if !ok {
		return 0, false
	}
	c, ok := t.Schema().Column(col.Column)
	if !ok {
		return 0, false
	}
	return c.Type, true
}
