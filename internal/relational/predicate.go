package relational

import (
	"fmt"
	"strings"

	"nebula/internal/textutil"
)

// Op is a predicate comparison operator.
type Op int

const (
	// OpEq matches rows whose column equals the operand (case-insensitive
	// for strings, matching the paper's keyword-to-value semantics).
	OpEq Op = iota
	// OpContainsToken matches rows whose (text) column contains the operand
	// as a whole token.
	OpContainsToken
	// OpPrefix matches rows whose string rendering starts with the operand
	// (case-insensitive).
	OpPrefix
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpContainsToken:
		return "CONTAINS"
	case OpPrefix:
		return "PREFIX"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a single column comparison.
type Predicate struct {
	Column  string
	Op      Op
	Operand Value
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %q", p.Column, p.Op, p.Operand.Str())
}

// compiledPredicate is a Predicate resolved against one schema: the column
// position and, for the text operators, the lowered operand. Scans compile
// each predicate once and evaluate the compiled form per row.
type compiledPredicate struct {
	col     int
	op      Op
	operand Value  // OpEq
	lower   string // OpContainsToken, OpPrefix: the operand's lowered text
}

func (p Predicate) compile(s *Schema) (compiledPredicate, bool) {
	ci, ok := s.ColumnIndex(p.Column)
	if !ok {
		return compiledPredicate{}, false
	}
	c := compiledPredicate{col: ci, op: p.Op, operand: p.Operand}
	if p.Op == OpContainsToken || p.Op == OpPrefix {
		c.lower = strings.ToLower(p.Operand.Str())
	}
	return c, true
}

func (c *compiledPredicate) matches(v Value) bool {
	switch c.op {
	case OpEq:
		return v.EqualFold(c.operand)
	case OpContainsToken:
		return containsToken(v.Str(), c.lower)
	case OpPrefix:
		return hasPrefixFold(v.Str(), c.lower)
	default:
		return false
	}
}

// compilePredicates compiles a conjunction, leaving out the predicate at
// position skip (-1 for none). Callers have validated the column names.
func compilePredicates(s *Schema, preds []Predicate, skip int) []compiledPredicate {
	n := len(preds)
	if skip >= 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]compiledPredicate, 0, n)
	for i, p := range preds {
		if i == skip {
			continue
		}
		if c, ok := p.compile(s); ok {
			out = append(out, c)
		}
	}
	return out
}

// matchAll reports whether the row's values satisfy every compiled
// predicate.
func matchAll(preds []compiledPredicate, values []Value) bool {
	for i := range preds {
		if !preds[i].matches(values[preds[i].col]) {
			return false
		}
	}
	return true
}

// Query is a structured single-table selection with conjunctive predicates.
// The keyword search layer generates these the way Bergamaschi et al.'s
// configurations generate SQL.
type Query struct {
	Table      string
	Predicates []Predicate
}

func (q Query) String() string {
	if len(q.Predicates) == 0 {
		return "SELECT * FROM " + q.Table
	}
	parts := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		parts[i] = p.String()
	}
	return "SELECT * FROM " + q.Table + " WHERE " + strings.Join(parts, " AND ")
}

// Hash returns a 64-bit hash of the query's identity: its table, folded,
// and the multiset of its predicates as (folded column, operator, operand
// Key()). Conjunction order does not enter it. Queries that Equal reports
// equal hash alike; the shared multi-query executor groups by Hash and
// confirms each match with Equal (§6's shared execution optimization).
func (q Query) Hash() uint64 {
	var preds uint64
	for _, p := range q.Predicates {
		// Adding mixed predicate hashes keeps repeats apart, unlike XOR.
		preds += mix64(foldHash(p.Column)*31 + uint64(p.Op)*0x9e3779b97f4a7c15 + p.Operand.keyHash())
	}
	return mix64(foldHash(q.Table) ^ mix64(preds+uint64(len(q.Predicates))))
}

// Equal reports whether q and o are the same query up to case and
// conjunction order: fold-equal tables, and predicates that pair off one to
// one with fold-equal columns, the same operator and SameKey operands.
func (q Query) Equal(o Query) bool {
	n := len(q.Predicates)
	if n != len(o.Predicates) || !textutil.LowerEqual(q.Table, o.Table) {
		return false
	}
	// used marks o's predicates already paired; the pairing is an
	// equivalence, so pairing greedily decides multiset equality.
	var stack [8]bool
	used := stack[:]
	if n > len(stack) {
		used = make([]bool, n)
	}
	for _, p := range q.Predicates {
		found := false
		for j := range o.Predicates {
			r := &o.Predicates[j]
			if !used[j] && p.Op == r.Op && p.Operand.SameKey(r.Operand) && textutil.LowerEqual(p.Column, r.Column) {
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
