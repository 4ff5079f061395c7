package relational

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Fingerprint is the reference for Query.Hash and Query.Equal: the string
// identity the shared multi-query executor deduplicated by before it
// grouped by hash. Two queries are the same query iff their fingerprints
// are equal. (The separators make the rendering ambiguous for names and
// operands that contain \x00 or \x01; no schema name or keyword does, and
// the generators below leave them out.)
func (q Query) Fingerprint() string {
	parts := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		parts[i] = strings.ToLower(p.Column) + "\x00" + p.Op.String() + "\x00" + p.Operand.Key()
	}
	// Conjunction order is irrelevant: sort for canonical form.
	sortStrings(parts)
	return strings.ToLower(q.Table) + "\x01" + strings.Join(parts, "\x01")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// identityNames are table and column names with case variants, including
// ones where Unicode lowering changes the byte length (the Kelvin sign, the
// dotted capital I) or differs from strings.EqualFold (ß and ẞ lower apart,
// but fold together), and an invalid byte.
var identityNames = []string{
	"Gene", "gene", "GENE", "GID", "gid", "Name", "NAME", "name",
	"Straße", "STRASSE", "straße", "STRAẞE", "Kelvin", "kelvin", "KELVIN",
	"İd", "i̇d", "ID", "Ǆ", "ǅ", "ǆ", "\xffx", "\xffX", "",
}

var identityStrings = []string{
	"JW0013", "jw0013", "Jw0013", "grpC", "GRPC", "ß", "ẞ", "ss", "SS",
	"K", "k", "K", "İ", "i̇", "é", "É", "\xff", "\xfe", "", "0", "-0",
}

var identityFloats = []float64{0, math.Copysign(0, -1), 1, 1.5, -1.5, 1e21, 1e-7, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff8000000000002)}

func randomOperand(rng *rand.Rand) Value {
	switch rng.Intn(3) {
	case 0:
		return String(identityStrings[rng.Intn(len(identityStrings))])
	case 1:
		return Int(int64(rng.Intn(5) - 2))
	default:
		return Float(identityFloats[rng.Intn(len(identityFloats))])
	}
}

func randomIdentityQuery(rng *rand.Rand) Query {
	q := Query{Table: identityNames[rng.Intn(len(identityNames))]}
	for n := rng.Intn(5); n > 0; n-- {
		q.Predicates = append(q.Predicates, Predicate{
			Column:  identityNames[rng.Intn(len(identityNames))],
			Op:      Op(rng.Intn(3)),
			Operand: randomOperand(rng),
		})
	}
	return q
}

// variant returns q with its predicates shuffled and each name and string
// operand possibly swapped for another spelling: mostly the same query, and
// sometimes (when the swap is not a case variant) a different one.
func variant(rng *rand.Rand, q Query) Query {
	v := Query{Table: respell(rng, q.Table), Predicates: append([]Predicate(nil), q.Predicates...)}
	rng.Shuffle(len(v.Predicates), func(i, j int) { v.Predicates[i], v.Predicates[j] = v.Predicates[j], v.Predicates[i] })
	for i := range v.Predicates {
		p := &v.Predicates[i]
		p.Column = respell(rng, p.Column)
		if p.Operand.Kind() == TypeString {
			p.Operand = String(respell(rng, p.Operand.Str()))
		}
	}
	return v
}

func respell(rng *rand.Rand, s string) string {
	switch rng.Intn(4) {
	case 0:
		return strings.ToUpper(s)
	case 1:
		return strings.ToLower(s)
	case 2:
		return identityNames[rng.Intn(len(identityNames))]
	}
	return s
}

func checkQueryIdentity(t *testing.T, a, b Query) {
	t.Helper()
	same := a.Fingerprint() == b.Fingerprint()
	if got := a.Equal(b); got != same {
		t.Fatalf("Equal = %v, fingerprints equal = %v\n a=%q\n b=%q", got, same, a.Fingerprint(), b.Fingerprint())
	}
	if got := b.Equal(a); got != same {
		t.Fatalf("Equal not symmetric\n a=%q\n b=%q", a.Fingerprint(), b.Fingerprint())
	}
	if same && a.Hash() != b.Hash() {
		t.Fatalf("equal fingerprints, hashes differ\n a=%q\n b=%q", a.Fingerprint(), b.Fingerprint())
	}
}

// TestQueryIdentityMatchesFingerprint holds Query.Equal to fingerprint
// equality, and Query.Hash to agree with it, over random queries and their
// respelled, reordered variants.
func TestQueryIdentityMatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	equal, hashClashes := 0, 0
	for trial := 0; trial < 20000; trial++ {
		a := randomIdentityQuery(rng)
		b := variant(rng, a)
		if rng.Intn(4) == 0 {
			b = randomIdentityQuery(rng)
		}
		checkQueryIdentity(t, a, b)
		if a.Equal(b) {
			equal++
		} else if a.Hash() == b.Hash() {
			hashClashes++
		}
	}
	if equal < 1000 || equal > 19000 {
		t.Errorf("%d of 20000 pairs equal: the generator no longer exercises both outcomes", equal)
	}
	if hashClashes > 0 {
		t.Errorf("%d distinct pairs share a hash", hashClashes)
	}
	// Repeated predicates are a multiset, not a set: {a, a, b} is not {a, b, b}.
	a := Query{Table: "Gene", Predicates: []Predicate{
		{Column: "GID", Op: OpEq, Operand: String("x")},
		{Column: "gid", Op: OpEq, Operand: String("X")},
		{Column: "Name", Op: OpEq, Operand: String("y")},
	}}
	b := Query{Table: "GENE", Predicates: []Predicate{
		{Column: "GID", Op: OpEq, Operand: String("x")},
		{Column: "Name", Op: OpEq, Operand: String("y")},
		{Column: "name", Op: OpEq, Operand: String("Y")},
	}}
	checkQueryIdentity(t, a, b)
	if a.Equal(b) || a.Hash() == b.Hash() {
		t.Error("queries with different predicate multiplicities compare equal")
	}
	// An int, a float and a string that render alike are different operands.
	ops := []Value{Int(1), Float(1), String("1")}
	for _, x := range ops {
		for _, y := range ops {
			checkQueryIdentity(t,
				Query{Table: "T", Predicates: []Predicate{{Column: "c", Operand: x}}},
				Query{Table: "T", Predicates: []Predicate{{Column: "c", Operand: y}}})
		}
	}
}

// FuzzQueryIdentity holds Equal and Hash to the fingerprint for queries
// built from fuzzed names and operands.
func FuzzQueryIdentity(f *testing.F) {
	f.Add("Gene", "GID", "JW0013", "gene", "gid", "jw0013", int64(0), 0.0, uint8(0))
	f.Add("Straße", "ẞ", "ß", "STRASSE", "ss", "SS", int64(-1), math.Copysign(0, -1), uint8(7))
	f.Add("K", "İ", "i̇", "k", "i̇", "İ", int64(3), math.NaN(), uint8(0x5a))
	f.Add("\xff", "Name", "a", "\xfe", "NAME", "A", int64(1), 1.0, uint8(0xff))
	f.Fuzz(func(t *testing.T, t1, c1, s1, t2, c2, s2 string, i int64, fl float64, shape uint8) {
		for _, s := range []string{t1, c1, s1, t2, c2, s2} {
			if strings.ContainsAny(s, "\x00\x01") {
				return
			}
		}
		operand := func(s string, bits uint8) Value {
			switch bits % 3 {
			case 0:
				return String(s)
			case 1:
				return Int(i)
			}
			return Float(fl)
		}
		a := Query{Table: t1, Predicates: []Predicate{
			{Column: c1, Op: Op(shape % 3), Operand: operand(s1, shape>>2)},
			{Column: c2, Op: OpEq, Operand: operand(s2, shape>>4)},
		}}
		b := Query{Table: t2, Predicates: []Predicate{
			{Column: c2, Op: Op(shape >> 6 % 3), Operand: operand(s2, shape>>4)},
			{Column: c1, Op: Op(shape % 3), Operand: operand(s1, shape>>2)},
		}}
		checkQueryIdentity(t, a, b)
		checkQueryIdentity(t, a, Query{Table: t2, Predicates: a.Predicates[:1]})
	})
}
