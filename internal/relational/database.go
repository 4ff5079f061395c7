package relational

import (
	"fmt"
	"strings"

	"nebula/internal/cache"
)

// Database is a set of tables plus the FK–PK relationship graph between
// them. Mutations are single-threaded (Nebula's engine serializes them
// under its write lock); concurrent read-only Selects are safe, and the
// optional scan cache is internally synchronized.
type Database struct {
	// tables is keyed by both the declared spelling and the lower-cased
	// form of each table name; iterate through order, never the map.
	tables map[string]*Table
	order  []string // creation order (declared spellings), for deterministic iteration
	// scanCache, when enabled, memoizes full-scan query results keyed by
	// the query fingerprint at the owning table's epoch. nil = disabled.
	scanCache *cache.LRU[string, []*Row]
	// rowHook observes committed row mutations on every table (current
	// and future) once installed; see SetRowMutationHook.
	rowHook func(RowMutation)
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable validates the schema and registers an empty table. Foreign
// keys may reference tables created later; ValidateForeignKeys checks them
// once the catalog is complete.
func (db *Database) CreateTable(s *Schema) (*Table, error) {
	if _, dup := db.tables[strings.ToLower(s.Name)]; dup {
		return nil, fmt.Errorf("table %q already exists", s.Name)
	}
	t, err := newTable(s, 0)
	if err != nil {
		return nil, err
	}
	db.register(t)
	return t, nil
}

// AddTable registers a table built by LoadTable, as CreateTable registers
// an empty one.
func (db *Database) AddTable(t *Table) error {
	if _, dup := db.tables[strings.ToLower(t.schema.Name)]; dup {
		return fmt.Errorf("table %q already exists", t.schema.Name)
	}
	db.register(t)
	return nil
}

func (db *Database) register(t *Table) {
	t.onMutate = db.rowHook
	db.tables[strings.ToLower(t.schema.Name)] = t
	db.tables[t.schema.Name] = t
	db.order = append(db.order, t.schema.Name)
}

// SetRowMutationHook installs (or, with nil, removes) an observer for
// committed row mutations across all tables, including tables created
// later. The hook runs synchronously inside Insert/Delete/Update; the
// engine uses it to write-ahead-log raw MutateDB row operations. Callers
// must ensure mutations are serialized while a hook is installed (the
// engine's write lock already does).
func (db *Database) SetRowMutationHook(hook func(RowMutation)) {
	db.rowHook = hook
	for _, name := range db.order {
		db.tables[name].onMutate = hook
	}
}

// Table returns the named table (case-insensitive). The declared spelling
// is tried first, so callers passing the catalog's own names do not pay for
// a case fold.
func (db *Database) Table(name string) (*Table, bool) {
	if t, ok := db.tables[name]; ok {
		return t, true
	}
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// MustTable returns the named table, panicking if absent. For use after the
// catalog has been validated.
func (db *Database) MustTable(name string) *Table {
	t, ok := db.Table(name)
	if !ok {
		panic(fmt.Sprintf("relational: no table %q", name))
	}
	return t
}

// TableNames returns table names in creation order.
func (db *Database) TableNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// TotalRows returns the number of tuples across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, name := range db.order {
		n += db.tables[name].Len()
	}
	return n
}

// ValidateForeignKeys verifies that every declared FK references an
// existing table's primary key.
func (db *Database) ValidateForeignKeys() error {
	for _, name := range db.order {
		t := db.tables[name]
		for _, fk := range t.schema.ForeignKeys {
			ref, ok := db.Table(fk.RefTable)
			if !ok {
				return fmt.Errorf("table %s: FK %s references unknown table %q", name, fk.Column, fk.RefTable)
			}
			if !strings.EqualFold(ref.schema.PrimaryKey, fk.RefColumn) {
				return fmt.Errorf("table %s: FK %s must reference %s's primary key %q, not %q",
					name, fk.Column, fk.RefTable, ref.schema.PrimaryKey, fk.RefColumn)
			}
		}
	}
	return nil
}

// EnableScanCache attaches a byte-bounded LRU memoizing full-scan query
// results. Entries are keyed by (query fingerprint, table epoch), so any
// Insert/Delete/Update on a table invalidates its cached row sets. Safe
// to call again to replace (and implicitly clear) the cache.
func (db *Database) EnableScanCache(maxBytes int64) {
	db.scanCache = cache.New[[]*Row](maxBytes)
}

// ScanCacheStats reports the scan cache's counters (zeros when the cache
// is disabled).
func (db *Database) ScanCacheStats() cache.Stats { return db.scanCache.Stats() }

// SetScanCacheLimit resizes the scan cache budget, evicting as needed.
// No-op when the cache is disabled.
func (db *Database) SetScanCacheLimit(maxBytes int64) { db.scanCache.SetMaxBytes(maxBytes) }

// Epoch sums all table epochs plus the table count, producing a single
// counter that moves whenever any data in the database changes (row
// mutations or table creation). Upper layers fold it into their own
// cache keys.
func (db *Database) Epoch() uint64 {
	e := uint64(len(db.order))
	for _, name := range db.order {
		e += db.tables[name].Epoch()
	}
	return e
}

// Lookup resolves a TupleID to its row.
func (db *Database) Lookup(id TupleID) (*Row, bool) {
	t, ok := db.Table(id.Table)
	if !ok {
		return nil, false
	}
	return t.GetByKey(id.Key)
}

// Select executes a structured query. It picks the most selective access
// path available (hash index for equality, inverted index for token
// containment) and filters the remaining predicates. The returned Stats
// report how many tuples were touched, which the benchmarks use as the
// machine-independent cost measure.
func (db *Database) Select(q Query) ([]*Row, SelectStats, error) {
	return db.selectQuery(q, true)
}

// SelectUncached executes a structured query bypassing the scan cache
// (neither consulting nor populating it). The keyword layer uses it when
// a scan budget is in force — budget truncation points depend on actual
// scan counts — and for per-request cache opt-out.
func (db *Database) SelectUncached(q Query) ([]*Row, SelectStats, error) {
	return db.selectQuery(q, false)
}

func (db *Database) selectQuery(q Query, useCache bool) ([]*Row, SelectStats, error) {
	var stats SelectStats
	t, ok := db.Table(q.Table)
	if !ok {
		return nil, stats, fmt.Errorf("select: unknown table %q", q.Table)
	}
	for _, p := range q.Predicates {
		if _, ok := t.schema.ColumnIndex(p.Column); !ok {
			return nil, stats, fmt.Errorf("select: table %s has no column %q", q.Table, p.Column)
		}
	}

	candidates, drove, usedIndex := db.accessPath(t, q)

	// Only full scans are worth memoizing: indexed accesses are already
	// near the cost of a cache probe. Stats report actual work done, so a
	// hit contributes zero scanned tuples.
	var key string
	var epoch uint64
	cacheable := useCache && !usedIndex && db.scanCache != nil
	if cacheable {
		key, epoch = q.Fingerprint(), t.Epoch()
		if rows, ok := db.scanCache.Get(key, epoch); ok {
			stats.CacheHits = 1
			stats.TuplesReturned = len(rows)
			return rows, stats, nil
		}
	}

	stats.IndexUsed = usedIndex
	stats.TuplesScanned = len(candidates)

	// The driving predicate is already satisfied by the access path.
	preds := compilePredicates(t.schema, q.Predicates, drove)
	var out []*Row
	for _, r := range candidates {
		if matchAll(preds, r.Values) {
			out = append(out, r)
		}
	}
	stats.TuplesReturned = len(out)
	if cacheable {
		db.scanCache.Put(key, epoch, out[:len(out):len(out)], scanEntryCost(key, len(out)))
	}
	return out, stats, nil
}

// scanEntryCost approximates the memory held by one scan-cache entry:
// the key string, row-pointer slice, and bookkeeping overhead. Rows
// themselves are shared with the table (Update is copy-on-write on
// row.Values, and every mutation bumps the epoch), so they are not
// charged.
func scanEntryCost(key string, rows int) int64 {
	return int64(len(key)) + 96 + 8*int64(rows)
}

// accessPath chooses the driving predicate. It returns the candidate rows,
// the index of the predicate satisfied by the access path (-1 for full
// scan), and whether an index drove the access.
func (db *Database) accessPath(t *Table, q Query) (rows []*Row, drove int, usedIndex bool) {
	best := -1
	var bestRows []*Row
	for i, p := range q.Predicates {
		ci, ok := t.schema.ColumnIndex(p.Column)
		if !ok {
			continue
		}
		switch p.Op {
		case OpEq:
			if ix := t.hash[ci]; ix != nil {
				c := ix.lookup(p.Operand)
				if best == -1 || len(c) < len(bestRows) {
					best, bestRows = i, c
				}
			}
		case OpContainsToken:
			if ix := t.inverted[ci]; ix != nil {
				c := ix.lookup(strings.ToLower(p.Operand.Str()))
				if best == -1 || len(c) < len(bestRows) {
					best, bestRows = i, c
				}
			}
		}
	}
	if best >= 0 {
		return bestRows, best, true
	}
	return t.rows, -1, false
}

// SelectStats reports the cost of one Select. Stats account actual work:
// a query answered from the scan cache counts its returned tuples and a
// cache hit, but zero scanned tuples.
type SelectStats struct {
	// TuplesScanned counts candidate tuples examined.
	TuplesScanned int
	// TuplesReturned counts tuples satisfying all predicates.
	TuplesReturned int
	// IndexUsed reports whether an index drove the access path.
	IndexUsed bool
	// CacheHits counts queries answered from the scan cache.
	CacheHits int
}

// Add accumulates another stats record (used when summing query batches).
func (s *SelectStats) Add(o SelectStats) {
	s.TuplesScanned += o.TuplesScanned
	s.TuplesReturned += o.TuplesReturned
	s.IndexUsed = s.IndexUsed || o.IndexUsed
	s.CacheHits += o.CacheHits
}

// Related follows FK–PK edges one hop in both directions from a row: the
// rows its foreign keys reference, and the rows in other tables whose
// foreign keys reference it. The keyword search layer uses this to produce
// "meaningful related tuples" (§6.1) without re-deriving join semantics.
func (db *Database) Related(r *Row) []*Row {
	var out []*Row
	// Outgoing: this row's FKs.
	for _, fk := range r.schema.ForeignKeys {
		ref, ok := db.Table(fk.RefTable)
		if !ok {
			continue
		}
		v, ok := r.Get(fk.Column)
		if !ok {
			continue
		}
		if target, ok := ref.GetByPK(v); ok {
			out = append(out, target)
		}
	}
	// Incoming: other tables whose FK column equals this row's PK.
	pk := r.MustGet(r.schema.PrimaryKey)
	for _, name := range db.order {
		t := db.tables[name]
		for _, fk := range t.schema.ForeignKeys {
			if !strings.EqualFold(fk.RefTable, r.schema.Name) {
				continue
			}
			matches, _ := t.LookupEqual(fk.Column, pk)
			out = append(out, matches...)
		}
	}
	return out
}
