package meta

import "strings"

// Matching weights for concept words (§5.2.1): exact name matches and
// expert-defined equivalent names score higher than lexicon synonyms.
const (
	// WeightExactName is p(w,c) when w equals the schema element's name.
	WeightExactName = 1.0
	// WeightEquivalentName is p(w,c) when w matches an expert-supplied
	// equivalent name of the element.
	WeightEquivalentName = 0.9
	// WeightSynonym is p(w,c) when w is a lexicon synonym of the element.
	WeightSynonym = 0.6
)

// ConceptMatch is one potential mapping of an annotation word onto a schema
// element mentioned in ConceptRefs, with its estimated weight p(w,c).
type ConceptMatch struct {
	// Element is the matched table or column.
	Element SchemaElement
	// Concept is the ConceptRefs row the element belongs to.
	Concept *Concept
	// Weight is p(w,c) ∈ (0,1].
	Weight float64
}

// ConceptMatches computes every potential concept mapping of a word: the
// Concept-Map generation step. A word may map to several elements (the
// paper: "each of the emphasized words may have multiple potential
// mappings"). Matches are deduplicated per element, keeping the highest
// weight.
func (r *Repository) ConceptMatches(word string) []ConceptMatch {
	return r.ConceptMatchesLowered(word, strings.ToLower(word))
}

// ConceptMatchesLowered is ConceptMatches for callers that already hold
// lower == strings.ToLower(word), as every textutil.Token does.
func (r *Repository) ConceptMatchesLowered(word, lower string) []ConceptMatch {
	return r.matcher().conceptMatches(r.lexicon, word, lower)
}

// ValueMatch is one potential mapping of an annotation word onto a column's
// value domain, with its estimated weight d(w,c).
type ValueMatch struct {
	// Column is the target column.
	Column ColumnRef
	// Weight is d(w,c) ∈ (0,1].
	Weight float64
}

// Value-domain scoring constants. The factors follow §5.2.1's d(w,c): data
// type compatibility is a prerequisite; then ontology membership or pattern
// conformance give strong evidence; columns with neither fall back to
// similarity against the drawn sample.
const (
	valueBase       = 0.10 // type-compatible but no positive evidence
	valueShapeOnly  = 0.45 // identifier-shaped but fails the column's pattern
	valueEvidence   = 0.85 // scale of the strongest positive evidence
	sampleExactSim  = 1.0  // word occurs verbatim in the sample
	sampleMinUseful = 0.55 // similarity below this is treated as noise
)

// ValueMatches computes every potential value mapping of a word over the
// ConceptRefs target columns: the Value-Map generation step.
func (r *Repository) ValueMatches(word string) []ValueMatch {
	return r.ValueMatchesLowered(word, strings.ToLower(word))
}

// ValueMatchesLowered is ValueMatches for callers that already hold
// lower == strings.ToLower(word), as every textutil.Token does.
func (r *Repository) ValueMatchesLowered(word, lower string) []ValueMatch {
	return r.matcher().appendValueMatches(nil, word, lower)
}

// AppendValueMatchesLowered is ValueMatchesLowered appending to dst, so
// that a caller scoring many words can reuse one buffer across them.
func (r *Repository) AppendValueMatchesLowered(dst []ValueMatch, word, lower string) []ValueMatch {
	return r.matcher().appendValueMatches(dst, word, lower)
}
