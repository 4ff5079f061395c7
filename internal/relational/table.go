package relational

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// RowMutationKind classifies one observed row mutation.
type RowMutationKind int

const (
	// RowInsert is an Insert.
	RowInsert RowMutationKind = iota + 1
	// RowDelete is a Delete/DeleteByKey.
	RowDelete
	// RowUpdate is a single-column Update that changed the stored value.
	RowUpdate
)

// RowMutation describes one committed row change, as delivered to a
// mutation hook (see Database.SetRowMutationHook). It carries everything a
// write-ahead log needs to replay the change deterministically.
type RowMutation struct {
	Kind  RowMutationKind
	Table string
	// Key is the tuple's canonical primary-key form (TupleID.Key).
	Key string
	// Values is the full inserted row (RowInsert only).
	Values []Value
	// Column and Value are the updated column and its new value
	// (RowUpdate only).
	Column string
	Value  Value
}

// Table stores the rows of one relation together with its indexes.
type Table struct {
	schema   *Schema
	rows     []*Row
	byPK     map[string]*Row
	hash     []*hashIndex     // by column position; nil where the column has none
	inverted []*invertedIndex // by column position; nil where the column has none
	// folded is the hash column of every string column the scan kernel
	// reads without an index: foldCell of each cell, in row order, kept
	// beside rows by every mutation. By column position; nil where the
	// column keeps none (see keepsFolded). Never persisted.
	folded [][]uint64
	pkCol  int
	// epoch counts mutations (Insert/Delete/Update). Cached query results
	// are keyed by it, so any change to the stored rows invalidates them.
	// Atomic so concurrent readers (discoveries under the engine's read
	// lock, /metrics scrapes) never race a write-locked mutation.
	epoch atomic.Uint64
	// onMutate, when non-nil, observes every committed Insert/Delete/
	// Update — the engine's WAL capture point for raw row operations. It
	// runs synchronously inside the mutation, which the engine already
	// serializes under its write lock. Subset/miniDB copies never carry a
	// hook (insertValidated bypasses it by design: materialized views are
	// derived state, not history).
	onMutate func(RowMutation)
}

// newTable returns an empty table; rows sizes the primary-key map for a
// table about to be filled with that many.
func newTable(s *Schema, rows int) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pk, _ := s.ColumnIndex(s.PrimaryKey)
	t := &Table{
		schema:   s,
		byPK:     make(map[string]*Row, rows),
		hash:     make([]*hashIndex, len(s.Columns)),
		inverted: make([]*invertedIndex, len(s.Columns)),
		folded:   make([][]uint64, len(s.Columns)),
		pkCol:    pk,
	}
	for i, c := range s.Columns {
		if c.Indexed || i == pk {
			t.hash[i] = newHashIndex()
		}
		if c.FullText {
			t.inverted[i] = newInvertedIndex()
		}
		if t.keepsFolded(i) {
			t.folded[i] = make([]uint64, 0, rows)
		}
	}
	return t, nil
}

// keepsFolded reports whether column i keeps a hash column: a string
// column with neither a hash nor a full-text index. An indexed column's
// equality queries never reach a scan, and a full-text column holds prose
// that equality probes rarely meet, so neither pays 8 bytes a row for one;
// the kernel folds their cells in place.
func (t *Table) keepsFolded(i int) bool {
	return t.schema.Columns[i].Type == TypeString && t.hash[i] == nil && t.inverted[i] == nil
}

// Schema returns the table definition.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of stored rows.
func (t *Table) Len() int { return len(t.rows) }

// Epoch returns the table's mutation counter. It advances on every
// Insert, Delete, and Update; cache entries derived from this table's
// rows carry the epoch they were computed at and are invalidated when
// it moves.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// Insert adds a tuple. Values must match the schema's column count and
// types; the primary key must be unique.
func (t *Table) Insert(values []Value) (*Row, error) {
	if len(values) != len(t.schema.Columns) {
		return nil, fmt.Errorf("table %s: insert with %d values, schema has %d columns",
			t.schema.Name, len(values), len(t.schema.Columns))
	}
	for i, v := range values {
		if v.Kind() != t.schema.Columns[i].Type {
			return nil, fmt.Errorf("table %s: column %s expects %v, got %v",
				t.schema.Name, t.schema.Columns[i].Name, t.schema.Columns[i].Type, v.Kind())
		}
	}
	pkKey := values[t.pkCol].Key()
	if _, dup := t.byPK[pkKey]; dup {
		return nil, fmt.Errorf("table %s: duplicate primary key %v", t.schema.Name, values[t.pkCol])
	}
	row := &Row{
		ID:     TupleID{Table: t.schema.Name, Key: pkKey},
		Values: values,
		schema: t.schema,
	}
	t.rows = append(t.rows, row)
	t.byPK[pkKey] = row
	t.indexRow(row)
	t.epoch.Add(1)
	if t.onMutate != nil {
		t.onMutate(RowMutation{Kind: RowInsert, Table: t.schema.Name, Key: pkKey, Values: values})
	}
	return row, nil
}

// insertValidated adds a copy of a row from another table with the same
// (validated) schema, skipping arity/type/duplicate checks. Callers must
// guarantee schema identity and PK uniqueness; Database.Subset does.
func (t *Table) insertValidated(src *Row) *Row {
	row := &Row{ID: src.ID, Values: src.Values, schema: t.schema}
	t.rows = append(t.rows, row)
	t.byPK[src.ID.Key] = row
	t.indexRow(row)
	t.epoch.Add(1)
	return row
}

func (t *Table) indexRow(row *Row) {
	for i, v := range row.Values {
		if ix := t.hash[i]; ix != nil {
			ix.add(v, row)
		}
		if ix := t.inverted[i]; ix != nil {
			ix.add(v.Str(), row)
		}
		if col := t.folded[i]; col != nil {
			t.folded[i] = append(col, foldCell(&row.Values[i]))
		}
	}
}

// rowPos returns row's position in t.rows.
func (t *Table) rowPos(row *Row) int {
	for i, r := range t.rows {
		if r == row {
			return i
		}
	}
	return -1
}

// Delete removes the tuple with the given primary-key value. It reports
// whether a row was removed.
func (t *Table) Delete(pk Value) bool { return t.DeleteByKey(pk.Key()) }

// DeleteByKey removes the tuple with the given canonical primary-key form
// (the Key component of a TupleID). It reports whether a row was removed.
func (t *Table) DeleteByKey(key string) bool {
	row, ok := t.byPK[key]
	if !ok {
		return false
	}
	delete(t.byPK, key)
	if i := t.rowPos(row); i >= 0 {
		t.rows = append(t.rows[:i:i], t.rows[i+1:]...)
		for j, col := range t.folded {
			if col != nil {
				t.folded[j] = append(col[:i:i], col[i+1:]...)
			}
		}
	}
	for i, v := range row.Values {
		if ix := t.hash[i]; ix != nil {
			ix.remove(v, row)
		}
		if ix := t.inverted[i]; ix != nil {
			ix.remove(v.Str(), row)
		}
	}
	t.epoch.Add(1)
	if t.onMutate != nil {
		t.onMutate(RowMutation{Kind: RowDelete, Table: t.schema.Name, Key: key})
	}
	return true
}

// Update replaces the value of one column of the tuple identified by pk,
// maintaining the column's hash/inverted indexes. Updating the primary-key
// column is rejected: tuple identities (TupleID) are referenced by
// annotations, the ACG, and verification tasks — re-keying a tuple is a
// delete + insert at the application layer.
func (t *Table) Update(pk Value, column string, value Value) error {
	return t.UpdateByKey(pk.Key(), column, value)
}

// UpdateByKey is Update addressed by the canonical primary-key form (the
// Key component of a TupleID) — the WAL-replay entry point, where only the
// recorded canonical key is available, not the original typed value.
func (t *Table) UpdateByKey(key string, column string, value Value) error {
	row, ok := t.byPK[key]
	if !ok {
		return fmt.Errorf("table %s: no tuple with %s = %v", t.schema.Name, t.schema.PrimaryKey, key)
	}
	ci, ok := t.schema.ColumnIndex(column)
	if !ok {
		return fmt.Errorf("table %s: no column %q", t.schema.Name, column)
	}
	if ci == t.pkCol {
		return fmt.Errorf("table %s: primary key updates are not supported (delete and re-insert)", t.schema.Name)
	}
	col := t.schema.Columns[ci]
	if value.Kind() != col.Type {
		return fmt.Errorf("table %s: column %s expects %v, got %v", t.schema.Name, col.Name, col.Type, value.Kind())
	}
	old := row.Values[ci]
	if old.Equal(value) {
		return nil
	}
	if ix := t.hash[ci]; ix != nil {
		ix.remove(old, row)
	}
	if ix := t.inverted[ci]; ix != nil {
		ix.remove(old.Str(), row)
	}
	// Rows share value slices with miniDB copies (Subset); copy-on-write
	// keeps materialized views unaffected by later updates.
	values := make([]Value, len(row.Values))
	copy(values, row.Values)
	values[ci] = value
	row.Values = values
	if col := t.folded[ci]; col != nil {
		col[t.rowPos(row)] = foldCell(&values[ci])
	}
	if ix := t.hash[ci]; ix != nil {
		ix.add(value, row)
	}
	if ix := t.inverted[ci]; ix != nil {
		ix.add(value.Str(), row)
	}
	t.epoch.Add(1)
	if t.onMutate != nil {
		t.onMutate(RowMutation{Kind: RowUpdate, Table: t.schema.Name, Key: key, Column: col.Name, Value: value})
	}
	return nil
}

// GetByPK returns the tuple with the given primary-key value.
func (t *Table) GetByPK(pk Value) (*Row, bool) {
	r, ok := t.byPK[pk.Key()]
	return r, ok
}

// GetByKey returns the tuple whose canonical PK key equals key (the Key
// component of a TupleID).
func (t *Table) GetByKey(key string) (*Row, bool) {
	r, ok := t.byPK[key]
	return r, ok
}

// Rows returns the stored rows in insertion order. The returned slice must
// not be mutated.
func (t *Table) Rows() []*Row { return t.rows }

// LookupEqual returns rows whose column equals v, using the hash index when
// present and a scan otherwise. The second result reports whether an index
// was used (the keyword executor accounts scanned-tuple costs with it).
func (t *Table) LookupEqual(column string, v Value) ([]*Row, bool) {
	ci, ok := t.schema.ColumnIndex(column)
	if !ok {
		return nil, false
	}
	if ix := t.hash[ci]; ix != nil {
		return ix.lookup(v), true
	}
	var out []*Row
	for _, r := range t.rows {
		if r.Values[ci].EqualFold(v) {
			out = append(out, r)
		}
	}
	return out, false
}

// LookupToken returns rows whose full-text-indexed column contains the
// (lower-cased) token. Columns without a full-text index fall back to a
// scan with tokenized matching.
func (t *Table) LookupToken(column, token string) []*Row {
	ci, ok := t.schema.ColumnIndex(column)
	if !ok {
		return nil
	}
	if ix := t.inverted[ci]; ix != nil {
		return ix.lookup(strings.ToLower(token))
	}
	needle := strings.ToLower(token)
	var out []*Row
	for _, r := range t.rows {
		if containsToken(r.Values[ci].Str(), needle) {
			out = append(out, r)
		}
	}
	return out
}

// DistinctCount returns the number of distinct values in the column when a
// hash index exists; otherwise it computes it with a scan.
func (t *Table) DistinctCount(column string) int {
	ci, ok := t.schema.ColumnIndex(column)
	if !ok {
		return 0
	}
	if ix := t.hash[ci]; ix != nil {
		return ix.distinct()
	}
	seen := make(map[string]struct{})
	for _, r := range t.rows {
		seen[r.Values[ci].Key()] = struct{}{}
	}
	return len(seen)
}
