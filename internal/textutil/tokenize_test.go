package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	got := Words("From the exp, it seems this gene is correlated to JW0014 of grpC")
	want := []string{"from", "the", "exp", "it", "seems", "this", "gene",
		"is", "correlated", "to", "jw0014", "of", "grpc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words() = %v, want %v", got, want)
	}
}

func TestTokenizeKeepsConnectedIdentifiers(t *testing.T) {
	cases := map[string][]string{
		"protein G-Actin binds":  {"protein", "g-actin", "binds"},
		"accession P12345.2 ok":  {"accession", "p12345.2", "ok"},
		"snake_case_name":        {"snake_case_name"},
		"trailing dash- here":    {"trailing", "dash", "here"},
		"dots... and ellipsis":   {"dots", "and", "ellipsis"},
		"comma,separated,words":  {"comma", "separated", "words"},
		"(parenthesized JW0001)": {"parenthesized", "jw0001"},
	}
	for in, want := range cases {
		if got := Words(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Words(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := Tokenize("  ,.;  "); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v, want empty", got)
	}
}

func TestTokenizeIndicesAndOffsets(t *testing.T) {
	toks := Tokenize("gene JW0014 ok")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	for i, tok := range toks {
		if tok.Index != i {
			t.Errorf("token %d has Index %d", i, tok.Index)
		}
	}
	if toks[1].Offset != 5 {
		t.Errorf("JW0014 offset = %d, want 5", toks[1].Offset)
	}
	if toks[1].Text != "JW0014" || toks[1].Lower != "jw0014" {
		t.Errorf("token = %+v", toks[1])
	}
}

func TestTokenizeUnicode(t *testing.T) {
	toks := Tokenize("gène número JW0014")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[2].Text != "JW0014" {
		t.Errorf("last token = %q", toks[2].Text)
	}
}

// referenceTokenize is the tokeniser as it stood before the byte-offset
// scanner, kept as the oracle the scanner is held against. Its offsets are
// taken from the token's position in the input rather than from the length
// of each re-encoded rune: the old arithmetic drifted by two bytes for every
// invalid byte before the token, which is the one thing it had wrong.
func referenceTokenize(text string) []Token {
	var tokens []Token
	runes := []rune(text)
	// offs[i] is the byte offset of runes[i] in text.
	offs := make([]int, 0, len(runes)+1)
	for off := range text {
		offs = append(offs, off)
	}
	offs = append(offs, len(text))
	word := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	n := len(runes)
	for i := 0; i < n; {
		if !word(runes[i]) {
			i++
			continue
		}
		start := i
		for i < n {
			r := runes[i]
			if word(r) || (r == '-' || r == '_' || r == '.') && i+1 < n && word(runes[i+1]) {
				i++
				continue
			}
			break
		}
		w := string(runes[start:i])
		tokens = append(tokens, Token{Text: w, Lower: strings.ToLower(w), Index: len(tokens), Offset: offs[start]})
	}
	return tokens
}

// checkTokens holds Tokenize against the reference and against the input.
func checkTokens(t *testing.T, s string) {
	t.Helper()
	got, want := Tokenize(s), referenceTokenize(s)
	if len(got) != len(want) {
		t.Fatalf("Tokenize(%q): %d tokens, reference has %d", s, len(got), len(want))
	}
	for i, tok := range got {
		if tok != want[i] {
			t.Fatalf("Tokenize(%q)[%d] = %+v, reference %+v", s, i, tok, want[i])
		}
		if tok.Offset < 0 || tok.Offset+len(tok.Text) > len(s) || s[tok.Offset:tok.Offset+len(tok.Text)] != tok.Text {
			t.Fatalf("Tokenize(%q)[%d]: offset %d does not point at %q", s, i, tok.Offset, tok.Text)
		}
	}
}

func TestTokenizeOffsetsAfterInvalidUTF8(t *testing.T) {
	toks := Tokenize("ab\xffcd JW0014")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, want := range []Token{
		{Text: "ab", Lower: "ab", Index: 0, Offset: 0},
		{Text: "cd", Lower: "cd", Index: 1, Offset: 3},
		{Text: "JW0014", Lower: "jw0014", Index: 2, Offset: 6},
	} {
		if toks[i] != want {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want)
		}
	}
}

// tokenizeSeeds are inputs every tokeniser change must keep right: connectors
// in every position, non-ASCII letters whose lower-case form changes length,
// and invalid bytes before, inside and after words.
var tokenizeSeeds = []string{
	"",
	"  ,.;  ",
	"From the exp, it seems this gene is correlated to JW0014 of grpC",
	"protein G-Actin binds; accession P12345.2 ok; snake_case_name",
	"trailing dash- here, dots... and a--b -lead .x_ _",
	"g\u00e8ne n\u00famero JW0014 \u0130stanbul \u212Aelvin STRASSE \u00df\u017f",
	"ab\xffcd JW0014",
	"\xff\xfe lead, mid\x80dle, trail\xc3",
	"a-\xffb c.\u00e9 \u00e9-\u00e9 x-\u0663",
	"\xe2\x82 truncated rune then word",
	"\ufffd real replacement rune between\ufffdwords",
}

// Property: on any input, invalid bytes included, the scanner agrees with
// the reference and offsets point at the token's text within the input.
func TestTokenizeOffsetsProperty(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkTokens(t, s)
	}
	f := func(s string, junk []byte) bool {
		// quick generates valid strings only; splice raw bytes in so stray
		// continuation and lead bytes land before, inside and after words.
		for i, b := range junk {
			at := (i * 7) % (len(s) + 1)
			s = s[:at] + string([]byte{b}) + s[at:]
		}
		checkTokens(t, s)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTokenize holds the scanner against the reference tokeniser: same
// Text, Lower and Index, and s[Offset:Offset+len(Text)] == Text always.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkTokens(t, s) })
}

// TestScannerDoesNotAllocate pins what the restart path relies on: walking
// tokens and folding ASCII ones into a reused buffer costs no allocation.
func TestScannerDoesNotAllocate(t *testing.T) {
	text := "From the exp, it seems this Gene is correlated to JW0014 of grpC (G-Actin, P12345.2)"
	buf := make([]byte, 0, 64)
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		var sc Scanner
		sc.Reset(text)
		for sc.Next() {
			buf = AppendLower(buf[:0], text[sc.Start:sc.End], sc.ASCII)
			n += len(buf)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanning allocates %v times per text, want 0", allocs)
	}
}

// Property: tokens contain no whitespace and are non-empty.
func TestTokenizeNoWhitespaceProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Text == "" || strings.ContainsAny(tok.Text, " \t\n") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "of"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"gene", "jw0014", "protein", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
}
