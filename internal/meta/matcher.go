package meta

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode/utf8"

	"nebula/internal/relational"
	"nebula/internal/textutil"
)

// matcher is an immutable snapshot of everything ConceptMatches and
// ValueMatches consult besides the word itself and the lexicon: the target
// columns with their type and value-domain sources resolved, and every
// concept element's name with its case already folded. The repository
// compiles it on first use and drops it in each of its mutators
// (AddConcept, AddEquivalentNames, SetOntology, SetPattern, SetSample,
// DrawSample), so matching one word lowers one word and nothing else.
//
// The lexicon is deliberately not part of the snapshot: callers extend it
// through Repository.Lexicon() at any time, so it is consulted live.
type matcher struct {
	targets []valueTarget
	// checks are the (element, name) pairs ConceptMatches scores, in the
	// order it records them.
	checks []nameCheck
	// slots is the number of distinct element identities among checks.
	slots int
	// scoresSamples reports whether any target falls through to sample
	// similarity (it has a sample and neither ontology nor pattern).
	scoresSamples bool
}

// valueTarget is one ConceptRefs target column as valueMatch sees it.
type valueTarget struct {
	col         ColumnRef
	typ         relational.Type
	hasOntology bool
	ontology    map[string]struct{} // keyed by lowered term
	pattern     *regexp.Regexp      // nil when the column has none
	filter      patternFilter       // what pattern says of the words it can match
	sample      []string
	sampleRunes [][]rune // each sample value lowered and decoded
}

// nameCheck scores a word against one name of one schema element.
type nameCheck struct {
	element SchemaElement
	concept *Concept
	// slot identifies element.String(): checks that share it are
	// deduplicated into one match, as the per-call string key used to.
	slot int
	name *elementName
}

// elementName is a table, concept or column name prepared for nameMatch.
type elementName struct {
	lower string
	// equivalents holds each expert-supplied equivalent name followed by
	// its whitespace-separated components; a word matching any of them
	// (under strings.EqualFold) matches the name.
	equivalents []string
	// parts are the lowered components of a multi-word name ("Gene Family",
	// "gene_family"); nil when the name has no separator.
	parts []string
}

func (r *Repository) matcher() *matcher {
	if m := r.compiled.Load(); m != nil {
		return m
	}
	// Readers racing the first build each compile an equal snapshot;
	// whichever is stored last stays.
	m := r.compile()
	r.compiled.Store(m)
	return m
}

// invalidateMatcher drops the compiled snapshot; every mutator of state the
// snapshot copies calls it.
func (r *Repository) invalidateMatcher() { r.compiled.Store(nil) }

func (r *Repository) compile() *matcher {
	m := &matcher{}
	for _, col := range r.TargetColumns() {
		typ, ok := r.ColumnType(col)
		if !ok {
			continue // valueMatch scores an unresolvable column 0
		}
		t := valueTarget{col: col, typ: typ}
		t.ontology, t.hasOntology = r.Ontology(col)
		t.pattern, _ = r.Pattern(col)
		if t.pattern != nil {
			t.filter = newPatternFilter(t.pattern)
		}
		t.sample, _ = r.Sample(col)
		t.sampleRunes = make([][]rune, len(t.sample))
		for i, s := range t.sample {
			t.sampleRunes[i] = []rune(strings.ToLower(s))
		}
		m.targets = append(m.targets, t)
		if !t.hasOntology && t.pattern == nil && len(t.sample) > 0 {
			m.scoresSamples = true
		}
	}

	names := make(map[string]*elementName)
	name := func(n string) *elementName {
		if en, ok := names[n]; ok {
			return en
		}
		en := &elementName{lower: strings.ToLower(n)}
		for _, eq := range r.equivalents[en.lower] {
			en.equivalents = append(en.equivalents, eq)
			en.equivalents = append(en.equivalents, strings.Fields(eq)...)
		}
		if strings.ContainsAny(n, " _") {
			for _, part := range strings.FieldsFunc(n, func(r rune) bool { return r == ' ' || r == '_' }) {
				en.parts = append(en.parts, strings.ToLower(part))
			}
		}
		names[n] = en
		return en
	}
	slots := make(map[string]int)
	check := func(el SchemaElement, c *Concept, n string) {
		key := el.String()
		slot, ok := slots[key]
		if !ok {
			slot = len(slots)
			slots[key] = slot
		}
		m.checks = append(m.checks, nameCheck{element: el, concept: c, slot: slot, name: name(n)})
	}
	for _, c := range r.concepts {
		table := SchemaElement{Kind: TableElement, Table: c.Table}
		check(table, c, c.Table)
		// The concept name itself may differ from the table name ("Gene
		// Family" lives in table Gene): a match on the concept name also
		// maps the word to the concept's table.
		if !strings.EqualFold(c.Name, c.Table) {
			check(table, c, c.Name)
		}
		for _, col := range c.Columns() {
			check(SchemaElement{Kind: ColumnElement, Table: col.Table, Column: col.Column}, c, col.Column)
		}
	}
	m.slots = len(slots)
	return m
}

// patternFilter is what a pattern's syntax says of every word it can match:
// the literal prefix the word starts with, and the range of its length in
// runes. A word outside it cannot match, so the regexp is not run for it.
type patternFilter struct {
	prefix   string
	minRunes int
	maxRunes int // < 0: unbounded
}

// newPatternFilter derives the filter of a pattern SetPattern compiled. It
// anchors every pattern at the start of the word, so the literal prefix of
// a match is a prefix of the word.
func newPatternFilter(re *regexp.Regexp) patternFilter {
	f := patternFilter{maxRunes: -1}
	f.prefix, _ = re.LiteralPrefix()
	if tree, err := syntax.Parse(re.String(), syntax.Perl); err == nil {
		f.minRunes, f.maxRunes = runeBounds(tree)
	}
	return f
}

func (f *patternFilter) admits(word string) bool {
	// A rune takes at least one byte: a word shorter in bytes than the
	// minimum needs no count.
	if len(word) < f.minRunes || !strings.HasPrefix(word, f.prefix) {
		return false
	}
	n := utf8.RuneCountInString(word)
	return n >= f.minRunes && (f.maxRunes < 0 || n <= f.maxRunes)
}

// runeBoundsCap keeps the bounds' arithmetic from overflowing: a minimum
// above it is lowered to it and a maximum above it is unbounded, both of
// which only admit more words.
const runeBoundsCap = 1 << 20

// runeBounds returns the least and greatest number of runes (decoded as the
// regexp engine decodes them, an invalid byte counting as one) that a
// match of re spans; hi < 0 means unbounded.
func runeBounds(re *syntax.Regexp) (lo, hi int) {
	switch re.Op {
	case syntax.OpEmptyMatch, syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText,
		syntax.OpEndText, syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return 0, 0
	case syntax.OpLiteral:
		// Under case folding a literal rune still matches one rune.
		return len(re.Rune), len(re.Rune)
	case syntax.OpCharClass, syntax.OpAnyCharNotNL, syntax.OpAnyChar:
		return 1, 1
	case syntax.OpCapture:
		return runeBounds(re.Sub[0])
	case syntax.OpStar:
		return 0, -1
	case syntax.OpPlus:
		lo, _ = runeBounds(re.Sub[0])
		return lo, -1
	case syntax.OpQuest:
		_, hi = runeBounds(re.Sub[0])
		return 0, hi
	case syntax.OpRepeat:
		lo, hi = runeBounds(re.Sub[0])
		lo = min(lo*re.Min, runeBoundsCap) // lo, Min <= 1000 each: no overflow
		if re.Max < 0 || hi < 0 || hi*re.Max > runeBoundsCap {
			return lo, -1
		}
		return lo, hi * re.Max
	case syntax.OpConcat, syntax.OpAlternate:
		concat := re.Op == syntax.OpConcat
		for i, sub := range re.Sub {
			sl, sh := runeBounds(sub)
			switch {
			case i == 0:
				lo, hi = sl, sh
			case concat:
				lo = min(lo+sl, runeBoundsCap)
				if hi >= 0 && sh >= 0 && hi+sh <= runeBoundsCap {
					hi += sh
				} else {
					hi = -1
				}
			default:
				lo = min(lo, sl)
				if hi >= 0 && sh >= 0 {
					hi = max(hi, sh)
				} else {
					hi = -1
				}
			}
		}
		return lo, hi
	}
	// OpNoMatch and anything newer: no bound.
	return 0, -1
}

// loweredWord is an annotation word lowered once, with the two singular
// forms equalWord tolerates ("genes", "classes").
type loweredWord struct {
	lower           string
	minusS, minusES string
	hasS, hasES     bool
}

func newLoweredWord(lower string) loweredWord {
	w := loweredWord{lower: lower}
	if w.hasS = strings.HasSuffix(lower, "s"); w.hasS {
		w.minusS = lower[:len(lower)-1]
	}
	if w.hasES = strings.HasSuffix(lower, "es"); w.hasES {
		w.minusES = lower[:len(lower)-2]
	}
	return w
}

// equals compares with a lowered name, tolerating a trailing plural "s" or
// "es" on the word ("genes" matches "gene").
func (w *loweredWord) equals(lowerName string) bool {
	return w.lower == lowerName || w.hasS && w.minusS == lowerName || w.hasES && w.minusES == lowerName
}

// match scores word against the name using the three-level scheme of
// §5.2.1: exact > equivalent > synonym. synonyms is the lexicon's set for
// the lowered word (nil when it has none).
func (n *elementName) match(word string, w *loweredWord, synonyms map[string]struct{}) float64 {
	if w.equals(n.lower) {
		return WeightExactName
	}
	for _, eq := range n.equivalents {
		if strings.EqualFold(eq, word) {
			return WeightEquivalentName
		}
	}
	if _, ok := synonyms[n.lower]; ok {
		return WeightSynonym
	}
	// Multi-word concept names ("Gene Family") match on a component word.
	for _, part := range n.parts {
		if w.equals(part) {
			return WeightEquivalentName
		}
	}
	return 0
}

// conceptStackSlots is the number of element identities conceptMatches
// tracks without allocating; a ConceptRefs table has a handful.
const conceptStackSlots = 32

func (m *matcher) conceptMatches(lexicon *Lexicon, word, lower string) []ConceptMatch {
	w := newLoweredWord(lower)
	synonyms := lexicon.synonyms[lower]
	// best[slot] is 1 + the position in out of the slot's match.
	var stack [conceptStackSlots]int
	best := stack[:]
	if m.slots > len(stack) {
		best = make([]int, m.slots)
	}
	var out []ConceptMatch
	for i := range m.checks {
		c := &m.checks[i]
		weight := c.name.match(word, &w, synonyms)
		if weight <= 0 {
			continue
		}
		if at := best[c.slot]; at > 0 {
			if weight > out[at-1].Weight {
				out[at-1].Weight = weight
				out[at-1].Concept = c.concept
			}
			continue
		}
		out = append(out, ConceptMatch{Element: c.element, Concept: c.concept, Weight: weight})
		best[c.slot] = len(out)
	}
	return out
}

func (m *matcher) appendValueMatches(out []ValueMatch, word, lower string) []ValueMatch {
	wv := wordView{word: word, lower: lower}
	// The word's runes travel beside wv, not inside it: the regexp call
	// makes everything wv points to escape, and the buffer keeps an
	// ordinary word's runes on the stack.
	var buf [32]rune
	runes := buf[:0]
	if m.scoresSamples {
		for _, r := range lower {
			runes = append(runes, r)
		}
	}
	for i := range m.targets {
		t := &m.targets[i]
		if weight := t.match(&wv, runes); weight > 0 {
			if cap(out) == 0 {
				out = make([]ValueMatch, 0, len(m.targets))
			}
			out = append(out, ValueMatch{Column: t.col, Weight: weight})
		}
	}
	return out
}

// wordView carries one word through the targets.
type wordView struct {
	word, lower string
	shape       int8 // 0 unknown, 1 identifier-shaped, -1 not: classified at most once
}

func (w *wordView) looksLikeIdentifier() bool {
	if w.shape == 0 {
		w.shape = -1
		if textutil.LooksLikeIdentifier(w.word) {
			w.shape = 1
		}
	}
	return w.shape > 0
}

// match computes d(w,c) for one column. lowerRunes is w.lower decoded; it
// is only filled in when the matcher has a target that scores its sample.
func (t *valueTarget) match(w *wordView, lowerRunes []rune) float64 {
	// Factor 1 — data type compatibility is a hard prerequisite.
	if !relational.CoercibleTo(t.typ, w.word) {
		return 0
	}
	evidence := -1.0
	hasStrongSource := false
	// Factor 2 — ontology membership. An ontology is a closed vocabulary:
	// non-membership is conclusive negative evidence.
	if t.hasOntology {
		hasStrongSource = true
		if _, member := t.ontology[w.lower]; member {
			evidence = 1.0
		}
	}
	// Factor 3 — syntactic pattern conformance. Patterns describe the
	// *usual* shape of values, so failing one is soft negative evidence.
	if t.pattern != nil {
		hasStrongSource = true
		if 1.0 > evidence && t.filter.admits(w.word) && t.pattern.MatchString(w.word) {
			evidence = 1.0
		}
	}
	// Factor 4 — sample similarity, only when the column has neither an
	// ontology nor a pattern (per the paper).
	if !hasStrongSource && len(t.sample) > 0 {
		if sim := t.bestSampleSimilarity(w.word, lowerRunes); sim >= sampleMinUseful {
			evidence = sim
		}
	}
	if evidence < 0 {
		// No positive evidence. An identifier-shaped word on a column that
		// *does* carry strong sources scores a weak middle value — it is
		// plausibly an identifier in the wrong format (a lab code, a strain
		// name, an accession from another repository). Such words survive a
		// loose cutoff like ε = 0.4 and are precisely the noise the paper's
		// Figure 11(c) attributes to low thresholds. Plain English words
		// stay far below any reasonable ε.
		if w.looksLikeIdentifier() {
			if hasStrongSource && !t.hasOntology {
				return valueShapeOnly
			}
			return valueBase
		}
		return valueBase / 2
	}
	return valueBase + valueEvidence*evidence
}

// bestSampleSimilarity returns the best similarity between the word and any
// sampled value, using exact match first and Jaro–Winkler otherwise.
func (t *valueTarget) bestSampleSimilarity(word string, lowerRunes []rune) float64 {
	best := 0.0
	for i, s := range t.sample {
		if strings.EqualFold(word, s) {
			return sampleExactSim
		}
		if sim := textutil.JaroWinklerRunes(lowerRunes, t.sampleRunes[i]); sim > best {
			best = sim
		}
	}
	return best
}
