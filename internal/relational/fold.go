package relational

import (
	"strings"
	"unicode/utf8"
)

// Case folding on the row path. Value.Key() and the predicate operators
// define equality through strings.ToLower, which allocates a fresh string
// for every cell that holds an upper-case letter. For pure-ASCII text
// ToLower is a byte-wise map that keeps the length, so the helpers here
// fold in place instead; anything holding a byte >= 0x80 goes back to
// ToLower itself, because Unicode lowering can change the byte length
// ("İ" and "K" shrink, an invalid byte grows into U+FFFD) and no byte-wise
// shortcut is exact there.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func foldByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// foldHashASCII returns the FNV-1a hash of s with ASCII letters lowered, and
// whether s is pure ASCII. The hash is meaningless when it is not.
func foldHashASCII(s string) (h uint64, ascii bool) {
	h = fnvOffset64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return 0, false
		}
		h = (h ^ uint64(foldByte(c))) * fnvPrime64
	}
	return h, true
}

// foldHash is the FNV-1a hash of strings.ToLower(s): foldHashASCII for
// pure-ASCII s, the hash of ToLower's result otherwise.
func foldHash(s string) uint64 {
	if h, ok := foldHashASCII(s); ok {
		return h
	}
	h := uint64(fnvOffset64)
	lower := strings.ToLower(s)
	for i := 0; i < len(lower); i++ {
		h = (h ^ uint64(lower[i])) * fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: it spreads every input bit over the
// output, so that sums of mixed hashes stay well distributed.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// foldCell is the hash a hash column keeps for v: foldHashASCII of a
// pure-ASCII string cell — the hash probe.seal gives operands — and 0 for
// any other cell. 0 means "ask byKey": the kernel resolves such a cell
// through its exact Key(), so the rare ASCII string whose hash is 0 costs a
// map lookup but never a wrong row.
func foldCell(v *Value) uint64 {
	if v.kind != TypeString {
		return 0
	}
	h, _ := foldHashASCII(v.s)
	return h
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// foldEqualASCII reports whether the pure-ASCII s lowers to lower.
func foldEqualASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if foldByte(s[i]) != lower[i] {
			return false
		}
	}
	return true
}

// hasPrefixFold reports strings.HasPrefix(strings.ToLower(text), lowerPrefix).
// ToLower maps rune by rune from the front, so while text's bytes are ASCII
// the lowered text's bytes are their folds; the first non-ASCII byte inside
// the compared span hands the whole question back to ToLower.
func hasPrefixFold(text, lowerPrefix string) bool {
	for i := 0; i < len(lowerPrefix); i++ {
		if i == len(text) {
			return false
		}
		c := text[i]
		if c >= utf8.RuneSelf {
			return strings.HasPrefix(strings.ToLower(text), lowerPrefix)
		}
		if foldByte(c) != lowerPrefix[i] {
			return false
		}
	}
	return true
}

// containsToken reports whether text, lowered, holds lowerTok as a whole
// token (no ASCII letter or digit on either side). Only ASCII text with an
// upper-case letter is searched by folding in place: ToLower returns any
// other ASCII text as it is, without allocating.
func containsToken(text, lowerTok string) bool {
	n := len(lowerTok)
	if n == 0 || !asciiWithUpper(text) {
		return containsTokenLowered(strings.ToLower(text), lowerTok)
	}
	first := lowerTok[0]
	for start := 0; start+n <= len(text); start++ {
		if foldByte(text[start]) != first || !foldEqualASCII(text[start:start+n], lowerTok) {
			continue
		}
		end := start + n
		if (start == 0 || !isWordByte(text[start-1])) && (end == len(text) || !isWordByte(text[end])) {
			return true
		}
	}
	return false
}

// asciiWithUpper reports whether s is pure ASCII and holds an upper-case
// letter: the one kind of text ToLower has to copy although its length
// stays.
func asciiWithUpper(s string) bool {
	upper := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return false
		}
		upper = upper || ('A' <= c && c <= 'Z')
	}
	return upper
}

// containsTokenLowered is containsToken over text that is already lowered.
func containsTokenLowered(lt, lowerTok string) bool {
	for idx := 0; idx <= len(lt); {
		i := strings.Index(lt[idx:], lowerTok)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(lowerTok)
		beforeOK := start == 0 || !isWordByte(lt[start-1])
		afterOK := end == len(lt) || !isWordByte(lt[end])
		if beforeOK && afterOK {
			return true
		}
		idx = start + 1
	}
	return false
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b >= 'A' && b <= 'Z'
}
