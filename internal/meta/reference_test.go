package meta

import (
	"strings"

	"nebula/internal/relational"
	"nebula/internal/textutil"
)

// ConceptMatches and ValueMatches as they stood before the compiled
// matcher: every call re-derives the target columns, re-lowers every name
// and sample, and keys the element dedup on el.String(). Kept verbatim as
// the oracle of the differential tests; the exported names are for the
// external test package, which can import the workload generator.

// ReferenceConceptMatches computes every potential concept mapping of a word: the
// Concept-Map generation step. A word may map to several elements (the
// paper: "each of the emphasized words may have multiple potential
// mappings"). Matches are deduplicated per element, keeping the highest
// weight.
func (r *Repository) ReferenceConceptMatches(word string) []ConceptMatch {
	best := make(map[string]int) // element key -> index in out
	var out []ConceptMatch
	record := func(el SchemaElement, c *Concept, w float64) {
		if w <= 0 {
			return
		}
		key := el.String()
		if i, ok := best[key]; ok {
			if w > out[i].Weight {
				out[i].Weight = w
				out[i].Concept = c
			}
			return
		}
		best[key] = len(out)
		out = append(out, ConceptMatch{Element: el, Concept: c, Weight: w})
	}
	for _, c := range r.concepts {
		record(SchemaElement{Kind: TableElement, Table: c.Table}, c, r.referenceNameMatch(word, c.Table))
		// The concept name itself may differ from the table name ("Gene
		// Family" lives in table Gene): a match on the concept name also
		// maps the word to the concept's table.
		if !strings.EqualFold(c.Name, c.Table) {
			record(SchemaElement{Kind: TableElement, Table: c.Table}, c, r.referenceNameMatch(word, c.Name))
		}
		for _, col := range c.Columns() {
			record(SchemaElement{Kind: ColumnElement, Table: col.Table, Column: col.Column}, c,
				r.referenceNameMatch(word, col.Column))
		}
	}
	return out
}

// referenceNameMatch scores word against a schema element name using the three-level
// scheme of §5.2.1: exact > equivalent > synonym.
func (r *Repository) referenceNameMatch(word, name string) float64 {
	if referenceEqualWord(word, name) {
		return WeightExactName
	}
	if r.referenceEquivalentMatch(word, name) {
		return WeightEquivalentName
	}
	if r.lexicon.AreSynonyms(word, name) {
		return WeightSynonym
	}
	// Multi-word concept names ("Gene Family") match on a component word.
	if strings.ContainsAny(name, " _") {
		for _, part := range strings.FieldsFunc(name, func(r rune) bool { return r == ' ' || r == '_' }) {
			if referenceEqualWord(word, part) {
				return WeightEquivalentName
			}
		}
	}
	return 0
}

// referenceEqualWord compares case-insensitively, tolerating a trailing plural "s"
// on the annotation word ("genes" matches "Gene").
func referenceEqualWord(word, name string) bool {
	w, n := strings.ToLower(word), strings.ToLower(name)
	if w == n {
		return true
	}
	if strings.HasSuffix(w, "s") && strings.TrimSuffix(w, "s") == n {
		return true
	}
	if strings.HasSuffix(w, "es") && strings.TrimSuffix(w, "es") == n {
		return true
	}
	return false
}

// referenceEquivalentMatch reports whether word matches an equivalent name of the
// element (either direction, whole-name or single-word component).
func (r *Repository) referenceEquivalentMatch(word, element string) bool {
	for _, eq := range r.equivalents[strings.ToLower(element)] {
		if strings.EqualFold(eq, word) {
			return true
		}
		// Multi-word equivalents match if the word equals a component:
		// "id" matches equivalent name "Gene ID".
		for _, part := range strings.Fields(eq) {
			if strings.EqualFold(part, word) {
				return true
			}
		}
	}
	return false
}

// ReferenceValueMatches computes every potential value mapping of a word over the
// ConceptRefs target columns: the Value-Map generation step.
func (r *Repository) ReferenceValueMatches(word string) []ValueMatch {
	var out []ValueMatch
	for _, col := range r.TargetColumns() {
		w := r.referenceValueMatch(word, col)
		if w > 0 {
			out = append(out, ValueMatch{Column: col, Weight: w})
		}
	}
	return out
}

// referenceValueMatch computes d(w,c) for one column.
func (r *Repository) referenceValueMatch(word string, col ColumnRef) float64 {
	colType, ok := r.ColumnType(col)
	if !ok {
		return 0
	}
	// Factor 1 — data type compatibility is a hard prerequisite.
	if !relational.CoercibleTo(colType, word) {
		return 0
	}
	evidence := -1.0
	hasStrongSource := false
	hasOntology := false
	// Factor 2 — ontology membership. An ontology is a closed vocabulary:
	// non-membership is conclusive negative evidence.
	if ont, ok := r.Ontology(col); ok {
		hasStrongSource = true
		hasOntology = true
		if _, member := ont[strings.ToLower(word)]; member {
			evidence = 1.0
		}
	}
	// Factor 3 — syntactic pattern conformance. Patterns describe the
	// *usual* shape of values, so failing one is soft negative evidence.
	if pat, ok := r.Pattern(col); ok {
		hasStrongSource = true
		if pat.MatchString(word) && 1.0 > evidence {
			evidence = 1.0
		}
	}
	// Factor 4 — sample similarity, only when the column has neither an
	// ontology nor a pattern (per the paper).
	if !hasStrongSource {
		if sample, ok := r.Sample(col); ok && len(sample) > 0 {
			sim := referenceBestSampleSimilarity(word, sample)
			if sim >= sampleMinUseful {
				evidence = sim
			}
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
		if textutil.LooksLikeIdentifier(word) {
			if hasStrongSource && !hasOntology {
				return valueShapeOnly
			}
			return valueBase
		}
		return valueBase / 2
	}
	return valueBase + valueEvidence*evidence
}

// referenceBestSampleSimilarity returns the best similarity between word and any
// sampled value, using exact match first and Jaro–Winkler otherwise.
func referenceBestSampleSimilarity(word string, sample []string) float64 {
	best := 0.0
	for _, s := range sample {
		if strings.EqualFold(word, s) {
			return sampleExactSim
		}
		if sim := textutil.JaroWinkler(strings.ToLower(word), strings.ToLower(s)); sim > best {
			best = sim
		}
	}
	return best
}
