package relational

import (
	"nebula/internal/textutil"
)

// hashIndex maps canonical value keys to the rows holding that value in one
// column. Row order within a bucket follows insertion order, which keeps
// scans deterministic.
type hashIndex struct {
	buckets map[string][]*Row
}

func newHashIndex() *hashIndex {
	return &hashIndex{buckets: make(map[string][]*Row)}
}

func (ix *hashIndex) add(v Value, r *Row) {
	k := v.Key()
	ix.buckets[k] = append(ix.buckets[k], r)
}

func (ix *hashIndex) remove(v Value, r *Row) {
	k := v.Key()
	rows := ix.buckets[k]
	for i, candidate := range rows {
		if candidate == r {
			ix.buckets[k] = append(rows[:i:i], rows[i+1:]...)
			break
		}
	}
	if len(ix.buckets[k]) == 0 {
		delete(ix.buckets, k)
	}
}

func (ix *hashIndex) lookup(v Value) []*Row {
	return ix.buckets[v.Key()]
}

// distinct returns the number of distinct values in the indexed column —
// used by keyword mapping to estimate selectivity.
func (ix *hashIndex) distinct() int { return len(ix.buckets) }

// invertedIndex maps lower-cased tokens to the rows whose indexed column
// contains that token. It powers keyword containment queries over text
// columns (publication titles/abstracts).
type invertedIndex struct {
	postings map[string][]*Row
}

// tokenBuf is the on-stack room a lowered token is built in; a longer
// token spills to the heap.
type tokenBuf [64]byte

func newInvertedIndex() *invertedIndex {
	return &invertedIndex{postings: make(map[string][]*Row)}
}

// add appends r to the posting list of every distinct token of text. A
// token repeated within the text is recognized by r already being the
// list's last entry: r is absent from the column's lists when add starts
// (a new row, or an updated one that remove just took out) and every
// append goes to the end.
func (ix *invertedIndex) add(text string, r *Row) {
	var buf tokenBuf
	var sc textutil.Scanner
	sc.Reset(text)
	for sc.Next() {
		key := textutil.AppendLower(buf[:0], text[sc.Start:sc.End], sc.ASCII)
		rows := ix.postings[string(key)]
		if n := len(rows); n > 0 && rows[n-1] == r {
			continue
		}
		ix.postings[string(key)] = append(rows, r)
	}
}

// remove keeps its per-call seen set: once r is out of a list, a repeat of
// the token would rescan the whole list to find nothing, which for a
// frequent word costs more than the set does.
func (ix *invertedIndex) remove(text string, r *Row) {
	seen := make(map[string]struct{})
	var buf tokenBuf
	var sc textutil.Scanner
	sc.Reset(text)
	for sc.Next() {
		key := textutil.AppendLower(buf[:0], text[sc.Start:sc.End], sc.ASCII)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		tok := string(key)
		seen[tok] = struct{}{}
		rows := ix.postings[tok]
		for i, candidate := range rows {
			if candidate == r {
				ix.postings[tok] = append(rows[:i:i], rows[i+1:]...)
				break
			}
		}
		if len(ix.postings[tok]) == 0 {
			delete(ix.postings, tok)
		}
	}
}

func (ix *invertedIndex) lookup(token string) []*Row {
	return ix.postings[token]
}
