package relational

import (
	"fmt"
	"runtime"
	"strings"
)

// minSegmentRows is the smallest slice of a shared table pass worth handing
// to its own worker; below it the scheduling overhead dominates the scan.
// Re-measured against the folded-hash kernel (BenchmarkSharedPassSegment:
// ~25 ns/row with every cell hashed, down from ~150 ns/row for Key() per
// row, so 256 rows shrank from ~38 µs of work to ~7 µs): an 8-query pass at
// 2 workers over 300/512/1024 rows took 14.6/19.3/35.9 µs cut into 256-row
// segments against 11.5/15.9/27.2 µs on one worker, and 10.7/16.4/25.8 µs
// with the floor at 1024, where a segment (~25 µs) again outweighs the
// 3-8 µs hand-off as it did when 256 was chosen.
const minSegmentRows = 1024

// hit records one row matching one query during a shared table pass.
type hit struct {
	qi int
	r  *Row
}

// SelectMulti executes a batch of queries, sharing table scans: queries
// against the same table that lack a usable index are all evaluated in a
// single pass over the table, instead of one scan each. Queries with an
// index access path execute individually (index lookups are already cheap
// and share nothing). Results align with the input order.
//
// This is the substrate-level half of the paper's §6 shared multi-query
// execution: the keyword executor detects identical structured queries by
// fingerprint, and SelectMulti shares the physical scans of the distinct
// remainder.
func (db *Database) SelectMulti(queries []Query) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, 1, true, scanFolded)
}

// SelectMultiWorkers is SelectMulti with a worker pool: the per-table scan
// groups are split into row segments and partitioned — together with the
// individual indexed lookups — across up to workers goroutines
// (workers <= 0 selects runtime.GOMAXPROCS; larger values clamp to
// GOMAXPROCS, since oversubscribing scan segments only adds scheduling
// overhead). Results and stats are merged in the sequential order (indexed
// queries first, then tables in first-seen order, then row order), so the
// output is byte-identical to SelectMulti whatever the worker count;
// workers == 1 runs everything inline on the calling goroutine.
func (db *Database) SelectMultiWorkers(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, workers, true, scanFolded)
}

// SelectMultiUncached is SelectMultiWorkers bypassing the scan cache; see
// SelectUncached for when that matters.
func (db *Database) SelectMultiUncached(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, workers, false, scanFolded)
}

// scanMode selects the row kernel of the shared passes. Everything outside
// the tests runs scanFolded.
type scanMode uint8

const (
	// scanFolded probes each cell through the probe's folded-hash table.
	scanFolded scanMode = iota
	// scanReference is the pass the kernel replaced — Value.Key() per row
	// per probed column, referenceMatches per residual — kept as the
	// oracle of the differential tests.
	scanReference
	// scanCollide is scanFolded with every hash forced to zero, so all
	// operands of a probe collide: the tests' proof that the fold-compare,
	// not the hash, decides a match.
	scanCollide
)

// probe folds the single-predicate equality queries on one column of one
// table: a row's cell is matched against all their operands at once.
//
// byKey is exact for every cell: operand Value.Key() -> query indexes in
// batch order. The kernel reaches it directly only for cells Key() has to
// be computed for — non-string kinds and strings holding a non-ASCII byte.
// A pure-ASCII cell can only equal an operand whose lowered key is pure
// ASCII too; those operands also sit in ops, found through slots (open
// addressing on the cell's case-folded hash) and confirmed by comparing
// the cell, folded in place, with the operand's lowered key.
type probe struct {
	colIdx int
	byKey  map[string][]int

	ops      []probeOperand
	slots    []int32 // 1-based index into ops; 0 = empty; len is a power of two
	lenMask  uint64  // bit min(len, 63) set for every length in ops
	hashMask uint64  // ^0, or 0 under scanCollide
}

type probeOperand struct {
	hash    uint64
	lower   string // the operand's Key() without its kind prefix
	queries []int  // byKey's slice for this key
}

func lenBit(n int) uint64 {
	if n > 63 {
		n = 63
	}
	return 1 << uint(n)
}

func (p *probe) add(operand Value, qi int) {
	k := operand.Key()
	p.byKey[k] = append(p.byKey[k], qi)
}

// seal builds the folded-hash table once every operand has been added. The
// map's iteration order only decides which slot an operand lands in, never
// what a lookup returns.
func (p *probe) seal(mode scanMode) {
	p.hashMask = ^uint64(0)
	if mode == scanCollide {
		p.hashMask = 0
	}
	for k := range p.byKey {
		if !strings.HasPrefix(k, stringKeyPrefix) {
			continue
		}
		lower := k[len(stringKeyPrefix):]
		h, ascii := foldHashASCII(lower)
		if !ascii {
			continue
		}
		p.ops = append(p.ops, probeOperand{hash: h & p.hashMask, lower: lower, queries: p.byKey[k]})
		p.lenMask |= lenBit(len(lower))
	}
	size := 2
	for size < 2*len(p.ops) {
		size *= 2
	}
	p.slots = make([]int32, size)
	for oi := range p.ops {
		i := p.ops[oi].hash & uint64(size-1)
		for p.slots[i] != 0 {
			i = (i + 1) & uint64(size-1)
		}
		p.slots[i] = int32(oi + 1)
	}
}

// lookup returns the indexes of the queries whose operand equals the cell,
// exactly as byKey[v.Key()] would.
func (p *probe) lookup(v *Value) []int {
	if s := v.s; v.kind == TypeString {
		if p.lenMask&lenBit(len(s)) == 0 {
			// No ASCII operand of this length; only a non-ASCII cell can
			// still lower to a key of another length.
			if isASCII(s) {
				return nil
			}
		} else if h, ascii := foldHashASCII(s); ascii {
			h &= p.hashMask
			mask := uint64(len(p.slots) - 1)
			for i := h & mask; ; i = (i + 1) & mask {
				oi := p.slots[i]
				if oi == 0 {
					return nil
				}
				if op := &p.ops[oi-1]; op.hash == h && foldEqualASCII(s, op.lower) {
					return op.queries
				}
			}
		}
	}
	return p.byKey[v.Key()]
}

// residualQuery is a scan query the probes cannot answer (several
// predicates, or an operator other than equality), compiled for the pass.
type residualQuery struct {
	idx   int
	q     Query // as submitted: what the reference kernel evaluates
	preds []compiledPredicate
}

// tablePass is one shared pass over one table, answering every scan query
// on it. Single-predicate equality queries — the overwhelmingly common
// shape the keyword executor generates — are folded into per-column
// probes, so the per-row cost is O(probed columns), not O(queries);
// everything else is evaluated per query within the same pass. Column
// positions, operand keys and lowered operands are all resolved while the
// pass is set up: the row loop folds no case and looks up no name.
type tablePass struct {
	t        *Table
	probes   []*probe // in first-seen column order
	residual []residualQuery
}

// add routes scan query q (batch position idx, column names validated) to
// the probe of its column or to the residual list.
func (pass *tablePass) add(idx int, q Query) {
	if len(q.Predicates) != 1 || q.Predicates[0].Op != OpEq {
		pass.residual = append(pass.residual, residualQuery{
			idx:   idx,
			q:     q,
			preds: compilePredicates(pass.t.schema, q.Predicates, -1),
		})
		return
	}
	ci, _ := pass.t.schema.ColumnIndex(q.Predicates[0].Column)
	var p *probe
	for _, have := range pass.probes {
		if have.colIdx == ci {
			p = have
			break
		}
	}
	if p == nil {
		p = &probe{colIdx: ci, byKey: make(map[string][]int)}
		pass.probes = append(pass.probes, p)
	}
	p.add(q.Predicates[0].Operand, idx)
}

// scan runs the pass over rows[lo:hi], appending to hits.
func (pass *tablePass) scan(lo, hi int, hits []hit) []hit {
	for _, r := range pass.t.rows[lo:hi] {
		for _, p := range pass.probes {
			for _, qi := range p.lookup(&r.Values[p.colIdx]) {
				hits = append(hits, hit{qi: qi, r: r})
			}
		}
		for i := range pass.residual {
			if matchAll(pass.residual[i].preds, r.Values) {
				hits = append(hits, hit{qi: pass.residual[i].idx, r: r})
			}
		}
	}
	return hits
}

func (db *Database) selectMultiWorkers(queries []Query, workers int, useCache bool, mode scanMode) ([][]*Row, SelectStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	results := make([][]*Row, len(queries))
	var stats SelectStats

	// Partition (sequential, deterministic): indexed queries run directly;
	// scan queries group by table, checking the scan cache first — a hit
	// fills its result slot immediately and drops out of the shared pass.
	// Validation errors surface here, before any execution, in input order.
	type scanItem struct {
		idx int
		q   Query
	}
	type cacheFill struct {
		idx   int
		key   string
		epoch uint64
	}
	var indexed []scanItem
	var fills []cacheFill // scan-query misses to Put after the merge
	var passes []*tablePass
	caching := useCache && db.scanCache != nil
	for i, q := range queries {
		t, ok := db.Table(q.Table)
		if !ok {
			return nil, stats, fmt.Errorf("select: unknown table %q", q.Table)
		}
		for _, p := range q.Predicates {
			if _, ok := t.schema.ColumnIndex(p.Column); !ok {
				return nil, stats, fmt.Errorf("select: table %s has no column %q", q.Table, p.Column)
			}
		}
		if _, _, ok := db.accessPath(t, q); ok {
			indexed = append(indexed, scanItem{idx: i, q: q})
			continue
		}
		if caching {
			key, epoch := q.Fingerprint(), t.Epoch()
			if rows, ok := db.scanCache.Get(key, epoch); ok {
				results[i] = rows
				stats.CacheHits++
				stats.TuplesReturned += len(rows)
				continue
			}
			fills = append(fills, cacheFill{idx: i, key: key, epoch: epoch})
		}
		var pass *tablePass
		for _, have := range passes {
			if have.t == t {
				pass = have
				break
			}
		}
		if pass == nil {
			pass = &tablePass{t: t}
			passes = append(passes, pass)
		}
		pass.add(i, q)
	}
	for _, pass := range passes {
		for _, p := range pass.probes {
			p.seal(mode)
		}
	}

	// Task list: one task per indexed query, then one per row segment of
	// each table pass. Every task writes only its own slot, so the pool
	// needs no locking and the merge below fixes the deterministic order.
	// Match buffers come from a sync.Pool and go back after the merge, so
	// steady-state batches stop re-growing per-segment slices.
	type segment struct {
		pass   *tablePass
		lo, hi int
		hits   []hit
	}
	var segments []*segment
	segsByPass := make([][]*segment, len(passes))
	for pi, pass := range passes {
		n := pass.t.Len()
		size := n
		if workers > 1 {
			size = (n + workers - 1) / workers
			if size < minSegmentRows {
				size = minSegmentRows
			}
		}
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			seg := &segment{pass: pass, lo: lo, hi: hi, hits: getHitBuf()}
			segments = append(segments, seg)
			segsByPass[pi] = append(segsByPass[pi], seg)
		}
	}
	idxRows := make([][]*Row, len(indexed))
	idxStats := make([]SelectStats, len(indexed))
	runTasks(len(indexed)+len(segments), workers, func(ti int) {
		if ti < len(indexed) {
			// Validation above guarantees these cannot error.
			rows, st, _ := db.selectQuery(indexed[ti].q, useCache)
			idxRows[ti], idxStats[ti] = rows, st
			return
		}
		seg := segments[ti-len(indexed)]
		if mode == scanReference {
			seg.hits = seg.pass.scanReference(seg.lo, seg.hi, seg.hits)
			return
		}
		seg.hits = seg.pass.scan(seg.lo, seg.hi, seg.hits)
	})

	// Merge in the fixed sequential order. TuplesScanned is the logical
	// size of each pass, whatever the kernel skipped per row: the scan
	// budget is defined on it.
	for ti, item := range indexed {
		results[item.idx] = idxRows[ti]
		stats.Add(idxStats[ti])
	}
	for pi, pass := range passes {
		stats.TuplesScanned += pass.t.Len()
		for _, seg := range segsByPass[pi] {
			for _, h := range seg.hits {
				results[h.qi] = append(results[h.qi], h.r)
				stats.TuplesReturned++
			}
		}
	}
	for _, seg := range segments {
		putHitBuf(seg.hits)
	}
	for _, f := range fills {
		rows := results[f.idx]
		db.scanCache.Put(f.key, f.epoch, rows[:len(rows):len(rows)], scanEntryCost(f.key, len(rows)))
	}
	return results, stats, nil
}
