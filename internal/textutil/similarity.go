package textutil

import "strings"

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions) between a and b. It runs in O(len(a)*len(b)) time and
// O(min) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSimilarity maps edit distance into [0,1]: 1 means identical,
// 0 means nothing in common relative to the longer string.
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	d := Levenshtein(a, b)
	return 1 - float64(d)/float64(maxLen)
}

// JaroWinkler returns the Jaro–Winkler similarity in [0,1]. It is the
// measure Nebula uses for matching annotation keywords against column
// samples, where prefixes are highly informative (identifier families share
// prefixes: "JW0013" vs "JW0014").
func JaroWinkler(a, b string) float64 {
	return JaroWinklerRunes([]rune(a), []rune(b))
}

// JaroWinklerRunes is JaroWinkler over text the caller has already decoded,
// for callers that score one word against many stored values.
func JaroWinklerRunes(ra, rb []rune) float64 {
	j := jaro(ra, rb)
	if j == 0 {
		return 0
	}
	// Common-prefix bonus, capped at 4 characters, scaling factor 0.1.
	// The prefix is counted in runes, matching jaro: comparing bytes here
	// would truncate the bonus mid-rune on multibyte text ("héllo" vs
	// "héllp" shares a 3-rune prefix, not 0xC3-then-mismatch).
	prefix := 0
	for i := 0; i < len(ra) && i < len(rb) && i < 4; i++ {
		if ra[i] != rb[i] {
			break
		}
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// jaroStackRunes is the length up to which jaro keeps its match flags on
// the stack; words and sampled cell values sit far below it.
const jaroStackRunes = 64

func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	var stackA, stackB [jaroStackRunes]bool
	matchA, matchB := stackA[:], stackB[:]
	if la > jaroStackRunes {
		matchA = make([]bool, la)
	}
	if lb > jaroStackRunes {
		matchB = make([]bool, lb)
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	k := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[k] {
			k++
		}
		if ra[i] != rb[k] {
			transpositions++
		}
		k++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// TrigramJaccard returns the Jaccard similarity of the character trigram
// sets of a and b, in [0,1]. Strings shorter than 3 runes fall back to exact
// comparison. The trigram path is rune-correct: trigrams converts to []rune
// before windowing, so a 3-rune CJK string produces one trigram rather than
// the seven byte-windows its UTF-8 encoding would.
func TrigramJaccard(a, b string) float64 {
	ta := trigrams(strings.ToLower(a))
	tb := trigrams(strings.ToLower(b))
	if len(ta) == 0 || len(tb) == 0 {
		if strings.EqualFold(a, b) {
			return 1
		}
		return 0
	}
	inter := 0
	for g := range ta {
		if _, ok := tb[g]; ok {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

func trigrams(s string) map[string]struct{} {
	r := []rune(s)
	if len(r) < 3 {
		return nil
	}
	out := make(map[string]struct{}, len(r)-2)
	for i := 0; i+3 <= len(r); i++ {
		out[string(r[i:i+3])] = struct{}{}
	}
	return out
}
