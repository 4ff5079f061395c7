package relational

import (
	"fmt"
	"runtime"
	"strings"
)

// minSegmentRows is the smallest slice of a shared table pass worth handing
// to its own worker; below it the scheduling overhead dominates the scan.
// Re-measured against the hash-column kernel, which costs ~8 ns a row
// (BenchmarkSharedPassSegment: 1024 rows in ~9 µs, 8192 in ~75 µs, down
// from ~25 ns a row when every cell was hashed per scan). An 8-query pass
// (BenchmarkSharedPassProbe, 2 CPUs, medians of 5) at 1 worker against 2
// workers with the floor at 1024/2048/4096/8192 took: 4 500 rows 59 µs
// against 61/59/68/63, 7 500 rows ~102 µs against 91/87/95/101, 15 000
// rows ~193 µs against 163/159/160/158. Cutting a D_mid table in two gains
// at 7 500 and 15 000 rows and breaks even at 4 500 (2 250-row segments),
// so the floor must stay below 3 750, and at those sizes it never binds
// below 2 250. 1024 and 2048 measure the same within noise; the floor
// stays at 1024 because a 1024-row segment (~9 µs) still covers the
// 3-8 µs hand-off, and the differential suites' 1 500-row tables split
// into two segments only under it.
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
	// scanFolded probes each cell's folded hash — read from the table's
	// hash column, or folded in place where it keeps none — through the
	// probe's folded-hash table.
	scanFolded scanMode = iota
	// scanReference is the pass the kernel replaced — Value.Key() per row
	// per probed column, referenceMatches per residual — kept as the
	// oracle of the differential tests.
	scanReference
	// scanCollide is scanFolded with every operand and cell hash masked to
	// zero, so all operands of a probe collide: the tests' proof that the
	// fold-compare, not the hash, decides a match.
	scanCollide
)

// probe folds the single-predicate equality queries on one column of one
// table: a row's cell is matched against all their operands at once.
//
// byKey is exact for every cell: operand Value.Key() -> query indexes in
// batch order. The kernel reaches it directly only for cells whose hash is
// 0 — non-string kinds and strings holding a non-ASCII byte. A pure-ASCII
// cell can only equal an operand whose lowered key is pure ASCII too; those
// operands also sit in ops, found through slots (open addressing on the
// cell's case-folded hash) and confirmed by comparing the cell, folded in
// place, with the operand's lowered key.
type probe struct {
	colIdx int
	byKey  map[string][]int

	ops      []probeOperand
	slots    []int32 // 1-based index into ops; 0 = empty; len is a power of two
	hashMask uint64  // ^0, or 0 under scanCollide
}

type probeOperand struct {
	hash    uint64
	lower   string // the operand's Key() without its kind prefix
	queries []int  // byKey's slice for this key
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
	}
	// At least four slots per operand: most cells meet no operand, and at
	// this load most of them stop on an empty slot at the first probe.
	size := 2
	for size < 4*len(p.ops) {
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

// scan matches the cells of rows[lo:hi] against every operand, appending
// to hits in row order. Where t keeps the column's hash column the kernel
// walks it and touches a row only when its hash meets an operand's or is
// 0; any other column (int, float, indexed or full-text) has each cell
// folded in place to the same hash, through the same loop.
func (p *probe) scan(t *Table, lo, hi int, hits []hit) []hit {
	rows := t.rows[lo:hi]
	col := t.folded[p.colIdx]
	if col != nil {
		col = col[lo:hi]
	}
	mask := uint64(len(p.slots) - 1)
	for i := range rows {
		var h uint64
		if col != nil {
			h = col[i]
		} else {
			h = foldCell(&rows[i].Values[p.colIdx])
		}
		var qs []int
		if h == 0 {
			qs = p.byKey[rows[i].Values[p.colIdx].Key()]
		} else {
			h &= p.hashMask
			for j := h & mask; p.slots[j] != 0; j = (j + 1) & mask {
				if op := &p.ops[p.slots[j]-1]; op.hash == h && foldEqualASCII(rows[i].Values[p.colIdx].s, op.lower) {
					qs = op.queries
					break
				}
			}
		}
		for _, qi := range qs {
			hits = append(hits, hit{qi: qi, r: rows[i]})
		}
	}
	return hits
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
// pass is set up, and a hash column's cells were folded when they were
// written: the probe loops fold no stored case and look up no name.
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

// scan runs the pass over rows[lo:hi], appending to hits: probe by probe,
// then the residuals row by row. A query belongs to exactly one probe or
// to the residual list, so each query's hits stay in row order; the merge
// reads them per query.
func (pass *tablePass) scan(lo, hi int, hits []hit) []hit {
	for _, p := range pass.probes {
		hits = p.scan(pass.t, lo, hi, hits)
	}
	if len(pass.residual) == 0 {
		return hits
	}
	for _, r := range pass.t.rows[lo:hi] {
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
