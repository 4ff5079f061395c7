// Package textutil provides the low-level text analysis primitives used by
// Nebula's annotation processing pipeline: tokenization of free-text
// annotations, stop-word filtering, string similarity measures, and token
// shape classification.
//
// Annotations in Nebula are arbitrary free text (comments, abstracts, whole
// articles). Before signature maps can be built (see internal/sigmap), the
// text must be broken into word tokens that retain their position so that
// influence ranges ("α words to the left and to the right", §5.2.2 of the
// paper) are meaningful.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single word extracted from an annotation, with enough position
// information to reconstruct context windows over the original text.
type Token struct {
	// Text is the token exactly as it appeared (original case preserved;
	// matching code decides case sensitivity per use).
	Text string
	// Lower is Text lower-cased once, since nearly every consumer needs it.
	Lower string
	// Index is the ordinal position of the token in the token stream.
	Index int
	// Offset is the byte offset of the token's first byte in the input.
	Offset int
}

// Scanner walks a text's word tokens by byte offset without allocating. It
// is the one tokenisation rule: Tokenize, the relational inverted indexes
// and the snapshot loader all read tokens from it.
//
// A token is a maximal run of letters, digits, and the connector characters
// '_', '-', '.' appearing between alphanumerics (so identifiers such as
// "JW0014", "G-Actin", and "P12345.2" survive as single tokens). Pure
// punctuation is discarded, and so is a byte that is not valid UTF-8: it
// separates tokens like any other non-word character.
type Scanner struct {
	text string
	pos  int
	// Start and End delimit the current token: text[Start:End].
	Start, End int
	// ASCII reports that the current token holds no byte >= 0x80, so its
	// lower-case form has the same length and is a byte-wise fold.
	ASCII bool
}

// Reset points the scanner at the beginning of text.
func (s *Scanner) Reset(text string) { *s = Scanner{text: text} }

// Next advances to the next token and reports whether there is one.
func (s *Scanner) Next() bool {
	text, i := s.text, s.pos
	for i < len(text) {
		word, size := wordAt(text, i)
		if word {
			break
		}
		i += size
	}
	if i == len(text) {
		s.pos = i
		return false
	}
	s.Start, s.ASCII = i, true
	for i < len(text) {
		word, size := wordAt(text, i)
		if word {
			s.ASCII = s.ASCII && size == 1 && text[i] < utf8.RuneSelf
			i += size
			continue
		}
		// Connectors stay inside a token only when the next rune
		// continues the word: "G-Actin" is one token, "end-" is not.
		if isConnector(text[i]) && i+1 < len(text) {
			if next, _ := wordAt(text, i+1); next {
				i++
				continue
			}
		}
		break
	}
	s.End, s.pos = i, i
	return true
}

// wordAt reports whether the rune starting at text[i] is a letter or digit,
// and how many bytes it takes. An invalid byte is one non-word byte.
func wordAt(text string, i int) (word bool, size int) {
	c := text[i]
	if c < utf8.RuneSelf {
		return asciiWord[c], 1
	}
	r, size := utf8.DecodeRuneInString(text[i:])
	return unicode.IsLetter(r) || unicode.IsDigit(r), size
}

// asciiWord marks the ASCII letters and digits.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	return t
}()

func isConnector(c byte) bool {
	return c == '-' || c == '_' || c == '.'
}

// AppendLower appends the lower-case form of a token to dst and returns the
// extended buffer: a byte-wise fold when the scanner reported the token as
// ASCII, strings.ToLower otherwise.
func AppendLower(dst []byte, tok string, ascii bool) []byte {
	if !ascii {
		return append(dst, strings.ToLower(tok)...)
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// LowerEqual reports strings.ToLower(a) == strings.ToLower(b). While both
// strings are ASCII it folds byte by byte without building either; the first
// byte >= 0x80 hands the question to ToLower, since Unicode lowering can
// change the byte length. ToLower maps rune by rune from the front, so an
// ASCII mismatch before that byte already settles the answer.
func LowerEqual(a, b string) bool {
	if len(a) != len(b) {
		if isASCII(a) && isASCII(b) {
			return false
		}
		return strings.ToLower(a) == strings.ToLower(b)
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			return strings.ToLower(a) == strings.ToLower(b)
		}
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

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Tokenize splits an annotation's text into word tokens (see Scanner for
// what a token is). Text, and Lower where the token holds nothing to fold,
// are substrings of text.
func Tokenize(text string) []Token {
	var sc Scanner
	sc.Reset(text)
	if !sc.Next() {
		return nil
	}
	// English prose runs at about six bytes a word, separator included.
	tokens := make([]Token, 0, (len(text)-sc.Start)/6+1)
	for ok := true; ok; ok = sc.Next() {
		word := text[sc.Start:sc.End]
		tokens = append(tokens, Token{
			Text:   word,
			Lower:  strings.ToLower(word),
			Index:  len(tokens),
			Offset: sc.Start,
		})
	}
	return tokens
}

// Words returns just the lower-cased token texts, convenient for tests and
// for consumers that do not need positions.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Lower
	}
	return out
}

// stopwords is a compact English stop-word list. Annotations are scientific
// prose; filtering these words keeps signature maps small without risking the
// loss of identifiers (identifiers never collide with stop words).
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "from": {}, "has": {}, "have": {},
	"he": {}, "her": {}, "his": {}, "if": {}, "in": {}, "into": {}, "is": {},
	"it": {}, "its": {}, "may": {}, "not": {}, "of": {}, "on": {}, "or": {},
	"our": {}, "she": {}, "so": {}, "some": {}, "such": {}, "than": {},
	"that": {}, "the": {}, "their": {}, "them": {}, "then": {}, "there": {},
	"these": {}, "they": {}, "this": {}, "those": {}, "to": {}, "very": {},
	"was": {}, "we": {}, "were": {}, "which": {}, "while": {}, "who": {},
	"will": {}, "with": {}, "would": {}, "you": {}, "your": {}, "also": {},
	"been": {}, "between": {}, "both": {}, "can": {}, "do": {}, "does": {},
	"each": {}, "how": {}, "i": {}, "more": {}, "most": {}, "no": {},
	"other": {}, "out": {}, "over": {}, "same": {}, "seems": {}, "only": {},
	"under": {}, "up": {}, "what": {}, "when": {}, "where": {},
}

// IsStopword reports whether the (already lower-cased) word is an English
// stop word.
func IsStopword(lower string) bool {
	_, ok := stopwords[lower]
	return ok
}
