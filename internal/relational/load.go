package relational

import (
	"fmt"

	"nebula/internal/textutil"
)

// ColumnData is one column of a table in bulk-load form: the slice that
// matches the column's declared type holds one cell per row and the other
// two stay empty.
type ColumnData struct {
	Strings []string
	Ints    []int64
	Floats  []float64
}

// LoadTable builds a table from n rows given as whole columns. It leaves
// exactly the state n Inserts of the same rows would: rows, primary-key
// map, every hash bucket and posting list in row order, and the epoch. What
// it saves is the per-row cost: rows and cells come out of two slabs, the
// maps are sized once, every index list is cut to its final length, and
// arity, cell types and primary-key uniqueness are checked once per column
// or row instead of once per call.
//
// On return the rows, the primary-key map and the primary key's hash index
// are complete. Every other index, and every hash column with its hash
// order, is filled by one of the returned tasks.
// A task walks its column from row 0 up, so list order is insertion order
// whichever goroutine runs it, and two tasks never touch the same index:
// the caller may run them concurrently, and must have run them all before
// the table is read or registered with AddTable.
func LoadTable(s *Schema, cols []ColumnData, n int) (*Table, []func(), error) {
	t, err := newTable(s, n)
	if err != nil {
		return nil, nil, err
	}
	if len(cols) != len(s.Columns) {
		return nil, nil, fmt.Errorf("table %s: load with %d columns, schema has %d", s.Name, len(cols), len(s.Columns))
	}
	for j, c := range s.Columns {
		strs, ints, flts := len(cols[j].Strings), len(cols[j].Ints), len(cols[j].Floats)
		have := map[Type]int{TypeString: strs, TypeInt: ints, TypeFloat: flts}[c.Type]
		if have != n || strs+ints+flts != n {
			return nil, nil, fmt.Errorf("table %s: column %s expects %d %v cells, got %d string, %d int, %d float",
				s.Name, c.Name, n, c.Type, strs, ints, flts)
		}
	}
	if n == 0 {
		return t, nil, nil
	}

	width := len(s.Columns)
	values := make([]Value, n*width)
	for j, c := range s.Columns {
		switch c.Type {
		case TypeString:
			for i, v := range cols[j].Strings {
				values[i*width+j] = String(v)
			}
		case TypeInt:
			for i, v := range cols[j].Ints {
				values[i*width+j] = Int(v)
			}
		case TypeFloat:
			for i, v := range cols[j].Floats {
				values[i*width+j] = Float(v)
			}
		}
	}

	// The primary key feeds the row identity, the key map and its own hash
	// index from one key string per row; every bucket of a unique column
	// holds one row, so the buckets are cut from a copy of the row list.
	slab := make([]Row, n)
	t.rows = make([]*Row, n)
	buckets := make([]*Row, n)
	pk := t.hash[t.pkCol]
	pk.buckets = make(map[string][]*Row, n)
	var key []byte
	for i := range slab {
		row := &slab[i]
		// Capped, so an append to one row's cells can never reach the next.
		row.Values = values[i*width : (i+1)*width : (i+1)*width]
		row.schema = s
		key = row.Values[t.pkCol].appendKey(key[:0])
		if _, dup := t.byPK[string(key)]; dup {
			return nil, nil, fmt.Errorf("table %s: duplicate primary key %v", s.Name, row.Values[t.pkCol])
		}
		k := string(key)
		row.ID = TupleID{Table: s.Name, Key: k}
		t.rows[i], buckets[i] = row, row
		t.byPK[k] = row
		pk.buckets[k] = buckets[i : i+1 : i+1]
	}
	t.epoch.Store(uint64(n))

	var tasks []func()
	for j := range s.Columns {
		if ix := t.hash[j]; ix != nil && j != t.pkCol {
			tasks = append(tasks, func() { ix.buckets = t.groupByKey(j) })
		}
		if ix := t.inverted[j]; ix != nil {
			tasks = append(tasks, func() { ix.postings = t.groupByToken(j) })
		}
		if t.folded[j] != nil {
			tasks = append(tasks, func() {
				t.folded[j] = t.foldColumn(j)
				t.hashOrder[j] = sortByHash(t.folded[j])
			})
		}
	}
	return t, tasks, nil
}

// foldColumn is column j's hash column over the table's rows, filled into
// the capacity newTable reserved.
func (t *Table) foldColumn(j int) []uint64 {
	col := t.folded[j][:0]
	for _, r := range t.rows {
		col = append(col, foldCell(&r.Values[j]))
	}
	return col
}

// groupByKey is column j's hash index over the table's rows.
func (t *Table) groupByKey(j int) map[string][]*Row {
	g := newRowGroups(len(t.rows))
	var key []byte
	for i, r := range t.rows {
		key = r.Values[j].appendKey(key[:0])
		g.note(key, int32(i))
	}
	return g.lists(t.rows)
}

// groupByToken is column j's inverted index over the table's rows.
func (t *Table) groupByToken(j int) map[string][]*Row {
	bytes := 0
	for _, r := range t.rows {
		bytes += len(r.Values[j].s)
	}
	// About one token per eight bytes of prose once repeats within a row
	// are dropped; the pair list grows if a column runs denser.
	g := newRowGroups(bytes / 8)
	var buf tokenBuf
	var sc textutil.Scanner
	for i, r := range t.rows {
		text := r.Values[j].s
		sc.Reset(text)
		for sc.Next() {
			g.note(textutil.AppendLower(buf[:0], text[sc.Start:sc.End], sc.ASCII), int32(i))
		}
	}
	return g.lists(t.rows)
}

// rowGroups collects (key, row) pairs in row order and turns them into the
// key -> rows map an index holds, every list cut to its exact length out of
// one slab.
type rowGroups struct {
	ids    map[string]int32 // key -> dense id
	keys   []string         // id -> key
	counts []int32          // id -> rows noted
	last   []int32          // id -> last row noted: a key repeated within a row counts once
	pairs  []groupPair      // every (id, row) noted, in order
}

type groupPair struct{ id, row int32 }

func newRowGroups(pairs int) *rowGroups {
	return &rowGroups{ids: make(map[string]int32), pairs: make([]groupPair, 0, pairs)}
}

func (g *rowGroups) note(key []byte, row int32) {
	id, ok := g.ids[string(key)]
	if !ok {
		id = int32(len(g.keys))
		k := string(key)
		g.ids[k] = id
		g.keys = append(g.keys, k)
		g.counts = append(g.counts, 0)
		g.last = append(g.last, -1)
	}
	if g.last[id] == row {
		return
	}
	g.last[id] = row
	g.counts[id]++
	g.pairs = append(g.pairs, groupPair{id, row})
}

func (g *rowGroups) lists(rows []*Row) map[string][]*Row {
	// next[id] is where key id's next row goes; after the fill it is the
	// end of the key's list.
	next := make([]int32, len(g.keys))
	var off int32
	for id, c := range g.counts {
		next[id] = off
		off += c
	}
	slab := make([]*Row, len(g.pairs))
	for _, p := range g.pairs {
		slab[next[p.id]] = rows[p.row]
		next[p.id]++
	}
	out := make(map[string][]*Row, len(g.keys))
	for id, k := range g.keys {
		end := next[id]
		// Capped, so a later append to one list can never reach the next.
		out[k] = slab[end-g.counts[id] : end : end]
	}
	return out
}
