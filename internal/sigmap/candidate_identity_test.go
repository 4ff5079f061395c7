package sigmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nebula/internal/keyword"
)

// key is the reference for candidateQuery.sameAs: the string identity
// duplicate elimination keyed on before it compared keywords in place. Two
// candidates are duplicates iff their keys are equal. (The separators make
// the rendering ambiguous for names and texts that contain ':' or '|'; no
// schema name or token does, and the generators below leave them out.)
func (c candidateQuery) key() string {
	parts := make([]string, len(c.keywords))
	for i, k := range c.keywords {
		parts[i] = fmt.Sprintf("%d:%s:%s:%s", k.Role, strings.ToLower(k.TargetTable),
			strings.ToLower(k.TargetColumn), strings.ToLower(k.Text))
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// referenceFinalize is finalizeQueries as it stood with the string keys.
func referenceFinalize(raw []candidateQuery) []Query {
	bestByKey := make(map[string]int)
	var kept []candidateQuery
	for _, c := range raw {
		k := c.key()
		if i, ok := bestByKey[k]; ok {
			if c.weight > kept[i].weight {
				kept[i] = c
			}
			continue
		}
		bestByKey[k] = len(kept)
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
		out[i] = Query{ID: fmt.Sprintf("q%d", i+1), Keywords: c.keywords, Weight: w}
	}
	return out
}

// candidateWords are table, column and keyword spellings with case
// variants, including ones whose Unicode lowering changes the byte length
// (the Kelvin sign, the dotted capital I), ß and ẞ (which lower apart but
// fold together under strings.EqualFold), and an invalid byte.
var candidateWords = []string{
	"Gene", "gene", "GENE", "GID", "gid", "Protein", "PName", "pname",
	"JW0013", "jw0013", "grpC", "GRPC", "Straße", "STRASSE", "straße", "STRAẞE",
	"K", "k", "K", "İ", "i̇", "é", "É", "\xff", "",
}

func randomCandidate(rng *rand.Rand) candidateQuery {
	var c candidateQuery
	for n := 1 + rng.Intn(4); n > 0; n-- {
		c.keywords = append(c.keywords, keyword.Keyword{
			Text:         candidateWords[rng.Intn(len(candidateWords))],
			Role:         keyword.Role(rng.Intn(3)),
			TargetTable:  candidateWords[rng.Intn(len(candidateWords))],
			TargetColumn: candidateWords[rng.Intn(len(candidateWords))],
			Weight:       float64(rng.Intn(4)) / 4,
		})
		c.weight += c.keywords[len(c.keywords)-1].Weight
	}
	return c
}

// respellCandidate returns c with its keywords shuffled and each name or
// text possibly respelled: mostly a duplicate of c, sometimes not.
func respellCandidate(rng *rand.Rand, c candidateQuery) candidateQuery {
	v := candidateQuery{keywords: append([]keyword.Keyword(nil), c.keywords...), weight: float64(rng.Intn(8))}
	rng.Shuffle(len(v.keywords), func(i, j int) { v.keywords[i], v.keywords[j] = v.keywords[j], v.keywords[i] })
	respell := func(s string) string {
		switch rng.Intn(5) {
		case 0:
			return strings.ToUpper(s)
		case 1:
			return strings.ToLower(s)
		case 2:
			return candidateWords[rng.Intn(len(candidateWords))]
		}
		return s
	}
	for i := range v.keywords {
		k := &v.keywords[i]
		k.Text, k.TargetTable, k.TargetColumn = respell(k.Text), respell(k.TargetTable), respell(k.TargetColumn)
		if rng.Intn(10) == 0 {
			k.Role = keyword.Role(rng.Intn(3))
		}
	}
	return v
}

func checkCandidateIdentity(t *testing.T, a, b candidateQuery) {
	t.Helper()
	want := a.key() == b.key()
	if got := a.sameAs(b); got != want {
		t.Fatalf("sameAs = %v, keys equal = %v\n a=%q\n b=%q", got, want, a.key(), b.key())
	}
	if got := b.sameAs(a); got != want {
		t.Fatalf("sameAs not symmetric\n a=%q\n b=%q", a.key(), b.key())
	}
}

// TestCandidateIdentityMatchesKey holds candidateQuery.sameAs to key
// equality pair by pair, and finalizeQueries to the keyed reference over
// whole candidate lists.
func TestCandidateIdentityMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := 0
	for trial := 0; trial < 20000; trial++ {
		a := randomCandidate(rng)
		b := respellCandidate(rng, a)
		if rng.Intn(4) == 0 {
			b = randomCandidate(rng)
		}
		checkCandidateIdentity(t, a, b)
		if a.sameAs(b) {
			same++
		}
	}
	if same < 1000 || same > 19000 {
		t.Errorf("%d of 20000 pairs are duplicates: the generator no longer exercises both outcomes", same)
	}
	// Repeated keywords are a multiset: {a, a, b} is not {a, b, b}.
	k1 := keyword.Keyword{Text: "JW0013", Role: keyword.RoleValue, TargetTable: "Gene", TargetColumn: "GID"}
	k2 := keyword.Keyword{Text: "gene", Role: keyword.RoleTable, TargetTable: "Gene"}
	checkCandidateIdentity(t, makeQuery(k1, k1, k2), makeQuery(k1, k2, k2))

	for trial := 0; trial < 2000; trial++ {
		var raw []candidateQuery
		for n := rng.Intn(12); n > 0; n-- {
			if len(raw) > 0 && rng.Intn(2) == 0 {
				raw = append(raw, respellCandidate(rng, raw[rng.Intn(len(raw))]))
			} else {
				raw = append(raw, randomCandidate(rng))
			}
		}
		if got, want := finalizeQueries(raw), referenceFinalize(raw); !reflect.DeepEqual(got, want) {
			t.Fatalf("finalizeQueries = %v, reference %v", got, want)
		}
	}
}

// FuzzCandidateIdentity holds sameAs to the key for candidates built from
// fuzzed texts and names.
func FuzzCandidateIdentity(f *testing.F) {
	f.Add("JW0013", "Gene", "GID", "jw0013", "GENE", "gid", uint8(0))
	f.Add("Straße", "ẞ", "ß", "STRASSE", "ss", "SS", uint8(0x21))
	f.Add("K", "İ", "i̇", "k", "i̇", "İ", uint8(0x12))
	f.Add("\xff", "Name", "a", "\xfe", "NAME", "A", uint8(0xff))
	f.Fuzz(func(t *testing.T, x1, t1, c1, x2, t2, c2 string, roles uint8) {
		for _, s := range []string{x1, t1, c1, x2, t2, c2} {
			if strings.ContainsAny(s, ":|") {
				return
			}
		}
		r1, r2 := keyword.Role(roles%3), keyword.Role(roles>>2%3)
		a := makeQuery(
			keyword.Keyword{Text: x1, Role: r1, TargetTable: t1, TargetColumn: c1},
			keyword.Keyword{Text: x2, Role: r2, TargetTable: t2, TargetColumn: c2})
		b := makeQuery(
			keyword.Keyword{Text: x2, Role: keyword.Role(roles >> 4 % 3), TargetTable: t1, TargetColumn: c2},
			keyword.Keyword{Text: x1, Role: r1, TargetTable: t2, TargetColumn: c1})
		checkCandidateIdentity(t, a, b)
		checkCandidateIdentity(t, a, makeQuery(a.keywords[1], a.keywords[0]))
	})
}
