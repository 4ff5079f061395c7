package nebula

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unsafe"
)

// keyedOptions maps every Options field a discovery's clean result depends
// on to the discoveryKey field that carries it.
var keyedOptions = map[string]string{
	"Epsilon":                "epsilon",
	"Alpha":                  "alpha",
	"SharedExecution":        "sharedExecution",
	"FocalAdjustment":        "focalAdjustment",
	"AdjustmentHops":         "adjustmentHops",
	"Spreading":              "spreading",
	"SpreadingK":             "k", // resolved through the hop profile when 0
	"SpreadingCoverage":      "spreadingCoverage",
	"RequireStableACG":       "requireStableACG",
	"IncludeRelated":         "includeRelated",
	"SearchTechnique":        "searchTechnique",
	"SpamFraction":           "spamFraction",
	"Budget.MaxQueries":      "maxQueries",
	"Budget.MaxCandidates":   "maxCandidates",
	"Budget.MaxSearchedRows": "maxSearchedRows",
	"TopK":                   "topK",
}

// unkeyedOptions gives, for every other Options field, the reason a cached
// answer cannot depend on it.
var unkeyedOptions = map[string]string{
	"Parallelism":       "scheduling only: output is byte-identical at any worker count",
	"Budget.Deadline":   "only clean runs are cached; a run its deadline cut short is degraded",
	"Trace":             "observe-only: a traced and an untraced run share one answer",
	"Cache.Disabled":    "a run with caching off neither reads nor fills the cache",
	"Cache.MaxBytes":    "capacity: decides what is evicted, not what an entry holds",
	"SearcherFactory":   "opaque code: a run with a factory bypasses the cache",
	"Retry.MaxRetries":  "a run that retried is degraded and never cached",
	"Retry.BaseDelay":   "as Retry.MaxRetries",
	"Retry.MaxDelay":    "as Retry.MaxRetries",
	"Bounds.Lower":      "Stage 3 routing threshold, read after the run",
	"Bounds.Upper":      "as Bounds.Lower",
	"ACGBatchSize":      "fixed when the engine's graph is built; the cache is the engine's own",
	"ACGMu":             "as ACGBatchSize",
	"Ingest.Enabled":    "engine-scoped queue configuration, not read by a discovery",
	"Ingest.QueueCap":   "as Ingest.Enabled",
	"Ingest.CDCHops":    "as Ingest.Enabled",
	"Shards":            "engine-scoped; output is byte-identical at any shard count",
	"Store.Dir":         "engine-scoped substrate; disk answers are byte-identical to heap ones",
	"Store.MaxSegments": "as Store.Dir",
}

// optionLeaves lists the fields of t, nested structs flattened to
// "Outer.Inner" paths.
func optionLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, optionLeaves(f.Type, prefix+f.Name+".")...)
		} else {
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// TestOptionsClassifiedForDiscoveryKey fails when Options gains a field
// that is neither carried by the discovery cache key nor listed, with its
// reason, as unable to change a cached answer: an option that changes
// answers and is forgotten in the key would serve stale results.
func TestOptionsClassifiedForDiscoveryKey(t *testing.T) {
	keyFields := map[string]bool{}
	kt := reflect.TypeOf(discoveryKey{})
	for i := 0; i < kt.NumField(); i++ {
		keyFields[kt.Field(i).Name] = true
	}
	seen := map[string]bool{}
	for _, path := range optionLeaves(reflect.TypeOf(Options{}), "") {
		seen[path] = true
		field, keyed := keyedOptions[path]
		_, unkeyed := unkeyedOptions[path]
		switch {
		case keyed == unkeyed:
			t.Errorf("Options.%s must be in exactly one of keyedOptions and unkeyedOptions", path)
		case keyed && !keyFields[field]:
			t.Errorf("Options.%s is said to be carried by discoveryKey.%s, which does not exist", path, field)
		}
	}
	carried := map[string]bool{"body": true, "focal": true, "home": true}
	for path, field := range keyedOptions {
		if !seen[path] {
			t.Errorf("keyedOptions names Options.%s, which does not exist", path)
		}
		carried[field] = true
	}
	for path := range unkeyedOptions {
		if !seen[path] {
			t.Errorf("unkeyedOptions names Options.%s, which does not exist", path)
		}
	}
	for field := range keyFields {
		if !carried[field] {
			t.Errorf("discoveryKey.%s carries no listed option", field)
		}
	}
}

// keyInput is one discovery run as the cache key sees it.
type keyInput struct {
	body  string
	focal []TupleID
	opts  Options
	k     int
	home  int
}

func (in keyInput) key() discoveryKey {
	return newDiscoveryKey(in.body, in.focal, in.opts, in.k, in.home)
}

func (in keyInput) ref() string {
	return refDiscoveryKey(in.body, in.focal, in.opts, in.k, in.home)
}

// separable reports whether the reference string can be taken apart again:
// it joins body, focal references and options with 0x00 and 0x01, so a body
// or a reference holding one of those bytes can make two different runs
// render the same string. The struct key keeps such runs apart.
func (in keyInput) separable() bool {
	if strings.ContainsRune(in.body, 0) {
		return false
	}
	for _, f := range in.focal {
		if strings.ContainsAny(f.Table+f.Key, "\x00\x01") {
			return false
		}
	}
	return true
}

// checkKeyPair holds the struct key to the reference on one pair of runs:
// equal keys must mean equal reference strings, always; equal reference
// strings must mean equal keys whenever both strings are separable. It also
// holds the key's parts to their definitions.
func checkKeyPair(t *testing.T, a, b keyInput) {
	t.Helper()
	for _, in := range []keyInput{a, b} {
		want := strings.Join(strings.Fields(in.body), " ")
		if got := normalizeBody(in.body); got != want {
			t.Fatalf("normalizeBody(%q) = %q, want %q", in.body, got, want)
		}
		if got := bodyNormalized(in.body); got != (want == in.body) {
			t.Fatalf("bodyNormalized(%q) = %v, but Fields/Join gives %q", in.body, got, want)
		}
		// The focal part of the reference string, on its own: what an empty
		// body and fixed options leave between the two 0x00 separators.
		ref := refDiscoveryKey("", in.focal, Options{FocalAdjustment: true}, 0, 0)
		tail := len(refDiscoveryKey("", nil, Options{FocalAdjustment: true}, 0, 0)) - 1
		if got, want := canonicalFocal(in.focal), ref[1:len(ref)-tail]; got != want {
			t.Fatalf("canonicalFocal(%v) = %q, want %q", in.focal, got, want)
		}
	}
	keysEqual, refsEqual := a.key() == b.key(), a.ref() == b.ref()
	if keysEqual && !refsEqual {
		t.Fatalf("keys equal, reference strings differ:\n a=%+v\n b=%+v", a, b)
	}
	if refsEqual && !keysEqual && a.separable() && b.separable() {
		t.Fatalf("reference strings equal, keys differ:\n a=%+v\n b=%+v\n key a=%+v\n key b=%+v", a, b, a.key(), b.key())
	}
}

// spacings are what a word gap is rewritten to. Each separates words for
// strings.Fields, so none changes the normalized body.
var spacings = []string{" ", "  ", "\t", "\n", " \r\n", "\v\f", "\u00a0", "\u2003", "\u0085", "\u3000 "}

// respace rewrites every gap between the words of body, and sometimes its
// ends, from pick: the result normalizes to the same text.
func respace(body string, pick func() int) string {
	var b strings.Builder
	if pick()%3 == 0 {
		b.WriteString(spacings[pick()%len(spacings)])
	}
	for i, w := range strings.Fields(body) {
		if i > 0 {
			b.WriteString(spacings[pick()%len(spacings)])
		}
		b.WriteString(w)
	}
	if pick()%3 == 0 {
		b.WriteString(spacings[pick()%len(spacings)])
	}
	return b.String()
}

// keyFloats are the values a float option is drawn from: few, so that two
// draws often agree, with the corner cases among them.
var keyFloats = []float64{0, math.Copysign(0, -1), 0.5, 0.6, 1, math.NaN(), math.Inf(1)}

// drawOptions builds Options from pick, one draw per keyed field and one
// for two of the fields that must not separate runs.
func drawOptions(pick func() int) Options {
	var o Options
	o.Epsilon = keyFloats[pick()%len(keyFloats)]
	o.SpreadingCoverage = keyFloats[pick()%len(keyFloats)]
	o.SpamFraction = keyFloats[pick()%len(keyFloats)]
	o.Alpha = pick() % 3
	o.AdjustmentHops = pick() % 3
	o.TopK = pick() % 3
	o.Budget.MaxQueries = pick() % 3
	o.Budget.MaxCandidates = pick() % 3
	o.Budget.MaxSearchedRows = pick() % 2
	o.SharedExecution = pick()%2 == 0
	o.FocalAdjustment = pick()%2 == 0
	o.Spreading = pick()%2 == 0
	o.RequireStableACG = pick()%4 == 0
	o.IncludeRelated = pick()%2 == 0
	o.SearchTechnique = []string{"", TechniqueMetadata, TechniqueSymbolTable}[pick()%3]
	o.Parallelism = pick() % 4
	o.Trace = pick()%2 == 0
	return o
}

// mutateOption changes exactly one keyed option of o, chosen by which.
func mutateOption(o Options, which int) Options {
	switch which % 16 {
	case 0:
		o.Epsilon += 0.125
	case 1:
		o.Alpha++
	case 2:
		o.SharedExecution = !o.SharedExecution
	case 3:
		o.FocalAdjustment = !o.FocalAdjustment
	case 4:
		o.AdjustmentHops++
	case 5:
		o.Spreading = !o.Spreading
	case 6:
		o.SpreadingCoverage += 0.125
	case 7:
		o.RequireStableACG = !o.RequireStableACG
	case 8:
		o.IncludeRelated = !o.IncludeRelated
	case 9:
		o.SearchTechnique += "x"
	case 10:
		o.SpamFraction += 0.125
	case 11:
		o.Budget.MaxQueries++
	case 12:
		o.Budget.MaxCandidates++
	case 13:
		o.Budget.MaxSearchedRows++
	case 14:
		o.TopK++
	case 15:
		o.Epsilon = -o.Epsilon // 0 and -0 print differently
	}
	return o
}

// drawFocal decodes raw into tuple references, two bytes each, over a small
// alphabet: duplicates, shared tables, and pairs like Gene + x/k1 and
// Gene/x + k1 that differ as tuples and render alike, all occur.
func drawFocal(raw []byte) []TupleID {
	tables := []string{"Gene", "Gene/x", "Protein", "G", ""}
	keys := []string{"k1", "k2", "x/k1", "", "\x01", "é"}
	var out []TupleID
	for i := 0; i+1 < len(raw) && len(out) < 12; i += 2 {
		out = append(out, TupleID{Table: tables[int(raw[i])%len(tables)], Key: keys[int(raw[i+1])%len(keys)]})
	}
	return out
}

// derivePair builds run a from its arguments and run b from a: a respaced
// body and a permuted focal set, which must not change the key, then
// whatever the bits of change ask for, each of which must.
func derivePair(body string, focalRaw []byte, optSeed int64, change uint16) (a, b keyInput) {
	rng := rand.New(rand.NewSource(optSeed))
	pick := func() int { return rng.Intn(1 << 16) }
	a = keyInput{body: body, focal: drawFocal(focalRaw), opts: drawOptions(pick), k: pick() % 3, home: pick() % 4}
	b = a
	b.body = respace(a.body, pick)
	b.focal = append([]TupleID(nil), a.focal...)
	rng.Shuffle(len(b.focal), func(i, j int) { b.focal[i], b.focal[j] = b.focal[j], b.focal[i] })
	b.opts.Parallelism, b.opts.Trace = pick()%4, !a.opts.Trace
	if change&1 != 0 {
		b.opts = mutateOption(b.opts, int(change>>8))
	}
	if change&2 != 0 {
		b.body += " more"
	}
	if change&4 != 0 && len(b.focal) > 0 {
		b.focal = b.focal[1:]
	}
	if change&8 != 0 {
		b.focal = append(b.focal, TupleID{Table: "Gene", Key: "k1"})
	}
	if change&16 != 0 {
		b.k++
	}
	if change&32 != 0 {
		b.home++ // separates annotation-local runs only
	}
	if change&64 != 0 {
		b.opts, b.k, b.home = drawOptions(pick), pick()%3, pick()%4
	}
	return a, b
}

var keyBodySeeds = []string{
	"",
	" ",
	"binding kinase JW00042 regulates the expression of grpC",
	"  leading and trailing  ",
	"tabs\tand\nnewlines\r\n",
	"nbsp\u00a0joined em\u2003spaced ideographic\u3000gap next\u0085line",
	"café α-helix µM: text outside ASCII, regular spacing",
	"invalid \xff\xfe bytes \xc3 cut short \xe2\x80",
	"control \x01 \x1f characters are text",
	"nul \x00 inside",
	"a",
	"a b",
	"a  b",
}

// TestDiscoveryKeyMatchesReference is the differential test of the struct
// key against the formatted string it replaced: over seeded random pairs of
// runs, the two put the same runs in the same cache entry.
func TestDiscoveryKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	equal := 0
	const pairs = 20000
	for i := 0; i < pairs; i++ {
		focalRaw := make([]byte, rng.Intn(9))
		rng.Read(focalRaw)
		change := uint16(0)
		if rng.Intn(3) > 0 {
			change = uint16(1)<<rng.Intn(7) | uint16(rng.Intn(256))<<8
		}
		a, b := derivePair(keyBodySeeds[rng.Intn(len(keyBodySeeds))], focalRaw, rng.Int63(), change)
		checkKeyPair(t, a, b)
		if a.key() == b.key() {
			equal++
		}
	}
	if equal < pairs/10 || equal > pairs*9/10 {
		t.Errorf("%d of %d pairs shared a key: one side of the equivalence is hardly exercised", equal, pairs)
	}
}

// TestDiscoveryKeyHoldsNoNaN: a NaN in a map key equals nothing, itself
// included, so an entry under it could be neither hit nor removed.
func TestDiscoveryKeyHoldsNoNaN(t *testing.T) {
	o := Options{Epsilon: math.NaN(), SpreadingCoverage: math.NaN(), SpamFraction: math.Float64frombits(0x7ff8000000000123)}
	if a, b := newDiscoveryKey("x", nil, o, 0, 0), newDiscoveryKey("x", nil, o, 0, 0); a != b {
		t.Errorf("two keys of one run differ: %+v, %+v", a, b)
	}
}

// TestNormalizedBodyIsShared pins the point of the fast path, that an
// already normalized body goes into the key as the very string it came in
// as, and checks its whitespace rule against unicode.IsSpace on every rune.
func TestNormalizedBodyIsShared(t *testing.T) {
	for _, body := range keyBodySeeds {
		if body == "" || !bodyNormalized(body) {
			continue
		}
		if got := normalizeBody(body); unsafe.StringData(got) != unsafe.StringData(body) {
			t.Errorf("normalizeBody(%q) returned a copy", body)
		}
	}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if r == ' ' {
			continue // a single inner space is the regular separator
		}
		body := "a" + string(r) + "b"
		if got, want := bodyNormalized(body), !unicode.IsSpace(r); got != want {
			t.Fatalf("bodyNormalized(%q) = %v, want %v", body, got, want)
		}
	}
}

// FuzzDiscoveryKey drives checkKeyPair from fuzzed bodies (runs of spaces,
// tabs, newlines, U+00A0/U+2003, invalid UTF-8), focal sets, option draws
// and the choice of what differs between the two runs of a pair.
func FuzzDiscoveryKey(f *testing.F) {
	for i, body := range keyBodySeeds {
		f.Add(body, []byte{0, 0, 1, 2, byte(i), 3}, int64(i), uint16(0))
		f.Add(body, []byte{byte(i), 4, 1, 0}, int64(100+i), uint16(1)<<(i%7)|uint16(i)<<8)
	}
	f.Fuzz(func(t *testing.T, body string, focalRaw []byte, optSeed int64, change uint16) {
		a, b := derivePair(body, focalRaw, optSeed, change)
		checkKeyPair(t, a, b)
		checkKeyPair(t, b, b)
	})
}
