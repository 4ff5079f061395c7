package relational

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
)

// minSegmentRows is the smallest slice of a walked table pass worth handing
// to its own worker; below it the scheduling overhead dominates the scan.
// Only walks are cut into segments — a probe on a column that keeps no hash
// column, and a residual with no equality predicate to seed it (see
// tablePass) — while a pass's lookups in its hash orders are one task, and
// on D_mid lookups are all a discovery runs. A walk folds each cell in
// place at ~44 ns a row (BenchmarkSharedPassSegment: 1024 rows in ~45 µs,
// 8192 in ~317 µs). An 8-query walked pass (BenchmarkSharedPassProbe, 2
// CPUs, medians of 5) took at 1 worker against 2: 4 500 rows 240 against
// 166 µs, 7 500 rows 389 against 301 µs, 15 000 rows 739 against 491 µs,
// so segments still pay at every D_mid size. The same queries looked up
// took 42/64/123 µs at 1 worker and 43/75/116 µs at 2: one task, the same
// within noise. The floor stays at 1024 because a 1024-row segment (~45 µs)
// covers the 3-8 µs hand-off many times over, and the differential suites'
// 1 500-row tables split into two segments only under it.
const minSegmentRows = 1024

// hit records one row matching one query during a shared table pass. pos,
// the row's position, is set only by the lookups, which sort on it.
type hit struct {
	qi, pos int32
	r       *Row
}

// SelectMultiWorkers executes a batch of queries, sharing table scans:
// queries against the same table that lack a usable index are all
// evaluated in a single pass over the table, instead of one scan each.
// Queries with an index access path execute individually (index lookups
// are already cheap and share nothing). Results align with the input order.
//
// This is the substrate-level half of the paper's §6 shared multi-query
// execution: the keyword executor detects identical structured queries
// (Query.Hash, confirmed by Query.Equal), and SelectMultiWorkers shares the
// physical scans of the distinct remainder.
//
// Each table pass is split into tasks and partitioned — together with the
// individual indexed lookups — across up to workers goroutines (workers <=
// 0 selects runtime.GOMAXPROCS; larger values clamp to GOMAXPROCS, since
// oversubscribing scan segments only adds scheduling overhead). What a pass
// answers from its table's hash orders is one task; only what still walks
// the rows is cut into row segments. Results and stats are merged in the
// sequential order (indexed queries first, then tables in first-seen order,
// then row order within each query), so the output is byte-identical
// whatever the worker count; workers == 1 runs everything inline on the
// calling goroutine.
func (db *Database) SelectMultiWorkers(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, workers, scanFolded)
}

// SelectMultiUncached is SelectMultiWorkers under the name the benchmark's
// scan probe calls; it goes when ROADMAP item 11 re-bases that probe.
func (db *Database) SelectMultiUncached(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.SelectMultiWorkers(queries, workers)
}

// scanMode selects the row kernel of the shared passes. Everything outside
// the tests runs scanFolded.
type scanMode uint8

const (
	// scanFolded looks operands up in the hash order of a column that keeps
	// a hash column, and walks any other column, folding each cell in place
	// and probing the fold through the probe's folded-hash table.
	scanFolded scanMode = iota
	// scanReference is the pass the kernel replaced — Value.Key() per row
	// per probed column, referenceMatches per residual — kept as the
	// oracle of the differential tests.
	scanReference
	// scanCollide is scanFolded with every non-zero hash read as 1, and the
	// lookups reading an order sorted by that: one equal-hash run holds
	// every pure-ASCII cell of a column, and every operand's hash meets
	// every walked cell's. The tests' proof that the fold-compare, not the
	// hash, decides a match.
	scanCollide
)

// hashRuns is what a lookup reads of one hash column: the column and its
// row positions sorted by (hash, position), so the rows of one hash are a
// run of the order, in row order. Hashes read capped at limit.
type hashRuns struct {
	col   []uint64
	order []int32
	limit uint64
}

// hashRuns returns the runs of column ci for mode, and false where the
// column keeps no hash column or the mode walks every row. Under
// scanCollide the order is rebuilt, zeros then the rest, each in row order:
// the table's own order, read with every hash capped at 1, would not keep
// the merged run in row order.
func (t *Table) hashRuns(ci int, mode scanMode) (hashRuns, bool) {
	col := t.folded[ci]
	switch {
	case col == nil || mode == scanReference:
		return hashRuns{}, false
	case mode == scanCollide:
		order := make([]int32, 0, len(col))
		for _, nonzero := range []bool{false, true} {
			for i, h := range col {
				if (h != 0) == nonzero {
					order = append(order, int32(i))
				}
			}
		}
		return hashRuns{col: col, order: order, limit: 1}, true
	}
	return hashRuns{col: col, order: t.hashOrder[ci], limit: ^uint64(0)}, true
}

// after returns the first index of order from lo on whose hash reads above
// h.
func (hr *hashRuns) after(h uint64, lo int) int {
	hi := len(hr.order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if min(hr.col[hr.order[m]], hr.limit) <= h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// run returns the range of order holding the rows of the non-zero hash h,
// searched from lo, the end of the run of zeros.
func (hr *hashRuns) run(h uint64, lo int) (int, int) {
	lo = hr.after(h-1, lo)
	return lo, hr.after(h, lo)
}

// probe folds the single-predicate equality queries on one column of one
// table: a row's cell is matched against all their operands at once.
//
// byKey is exact for every cell: operand Value.Key() -> query indexes in
// batch order. The kernel reaches it directly only for cells whose hash is
// 0 — non-string kinds and strings holding a non-ASCII byte. A pure-ASCII
// cell can only equal an operand whose lowered key is pure ASCII too; those
// operands also sit in ops, and their rows are found by hash and confirmed
// by comparing the cell, folded in place, with the operand's lowered key.
// Where the column keeps a hash column the probe looks each operand's hash
// up in the hash order; elsewhere it walks the rows and meets the operands
// through slots (open addressing on the cell's case-folded hash).
type probe struct {
	colIdx int
	byKey  map[string][]int

	ops    []probeOperand
	lookup bool
	runs   hashRuns // lookup only
	slots  []int32  // walk only: 1-based index into ops; 0 = empty; len is a power of two
	limit  uint64   // hashes read capped at limit: ^0, or 1 under scanCollide
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

// seal prepares the probe once every operand has been added. The map's
// iteration order only decides where an operand lands in ops and slots,
// never what a match returns.
func (p *probe) seal(t *Table, mode scanMode) {
	p.limit = ^uint64(0)
	if mode == scanCollide {
		p.limit = 1
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
		p.ops = append(p.ops, probeOperand{hash: min(h, p.limit), lower: lower, queries: p.byKey[k]})
	}
	if p.runs, p.lookup = t.hashRuns(p.colIdx, mode); p.lookup {
		return
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

// find appends the probe's matches from its hash order: the run of zeros
// resolved through byKey, then each operand's run confirmed by the fold
// compare. A query can draw rows from both, so when the zeros matched
// anything the probe's hits are put back in (query, position) order; each
// query's rows are then in row order, as a walk leaves them.
func (p *probe) find(t *Table, hits []hit) []hit {
	start := len(hits)
	zeros := p.runs.after(0, 0)
	for _, pos := range p.runs.order[:zeros] {
		r := t.rows[pos]
		for _, qi := range p.byKey[r.Values[p.colIdx].Key()] {
			hits = append(hits, hit{qi: int32(qi), pos: pos, r: r})
		}
	}
	mixed := len(hits) > start
	for oi := range p.ops {
		op := &p.ops[oi]
		if op.hash == 0 {
			continue // its rows all sit among the zeros, resolved above
		}
		lo, hi := p.runs.run(op.hash, zeros)
		for _, pos := range p.runs.order[lo:hi] {
			r := t.rows[pos]
			if !foldEqualASCII(r.Values[p.colIdx].s, op.lower) {
				continue
			}
			for _, qi := range op.queries {
				hits = append(hits, hit{qi: int32(qi), pos: pos, r: r})
			}
		}
	}
	if mixed {
		slices.SortFunc(hits[start:], func(a, b hit) int {
			if c := cmp.Compare(a.qi, b.qi); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
	}
	return hits
}

// scan matches the cells of rows[lo:hi] against every operand, appending
// to hits in row order: each cell is folded in place and met with the
// operands through slots. Only a column without a hash column (int, float,
// indexed or full-text) is walked.
func (p *probe) scan(t *Table, lo, hi int, hits []hit) []hit {
	mask := uint64(len(p.slots) - 1)
	for _, r := range t.rows[lo:hi] {
		h := foldCell(&r.Values[p.colIdx])
		var qs []int
		if h == 0 {
			qs = p.byKey[r.Values[p.colIdx].Key()]
		} else {
			h = min(h, p.limit)
			for j := h & mask; p.slots[j] != 0; j = (j + 1) & mask {
				if op := &p.ops[p.slots[j]-1]; op.hash == h && foldEqualASCII(r.Values[p.colIdx].s, op.lower) {
					qs = op.queries
					break
				}
			}
		}
		for _, qi := range qs {
			hits = append(hits, hit{qi: int32(qi), r: r})
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

	// seeded: the query has an equality predicate with a pure-ASCII string
	// operand on a column that keeps a hash column, so only that column's
	// zeros and the run of hash seed can hold its rows.
	seeded bool
	runs   hashRuns
	seed   uint64
}

// seal seeds the query from its first predicate that can seed it.
func (r *residualQuery) seal(t *Table, mode scanMode) {
	for _, c := range r.preds {
		if c.op != OpEq || c.operand.kind != TypeString {
			continue
		}
		h, ascii := foldHashASCII(c.operand.s)
		if !ascii {
			continue
		}
		if r.runs, r.seeded = t.hashRuns(c.col, mode); r.seeded {
			r.seed = min(h, r.runs.limit)
			return
		}
	}
}

// find appends the query's matches among its candidates: the zeros of the
// seeding column, where every non-ASCII cell sits, merged by position with
// the run of the seed's hash, each checked against every predicate.
func (r *residualQuery) find(t *Table, hits []hit) []hit {
	zeros := r.runs.after(0, 0)
	z, s := r.runs.order[:zeros], r.runs.order[zeros:zeros]
	if r.seed != 0 {
		lo, hi := r.runs.run(r.seed, zeros)
		s = r.runs.order[lo:hi]
	}
	for len(z) > 0 || len(s) > 0 {
		var pos int32
		if len(s) == 0 || len(z) > 0 && z[0] < s[0] {
			pos, z = z[0], z[1:]
		} else {
			pos, s = s[0], s[1:]
		}
		if row := t.rows[pos]; matchAll(r.preds, row.Values) {
			hits = append(hits, hit{qi: int32(r.idx), pos: pos, r: row})
		}
	}
	return hits
}

// tablePass is one shared pass over one table, answering every scan query
// on it. Single-predicate equality queries — the overwhelmingly common
// shape the keyword executor generates — are folded into per-column
// probes, so the cost of a probe is O(operands) lookups on a column that
// keeps a hash column and O(rows) on any other; everything else is a
// residual, found from the hash order of one of its equality predicates
// where it has a usable one and evaluated row by row otherwise. Column
// positions, operand keys and lowered operands are all resolved while the
// pass is set up, and a hash column's cells were folded when they were
// written: the kernel folds no stored case and looks up no name.
type tablePass struct {
	t        *Table
	probes   []*probe // in first-seen column order
	residual []residualQuery

	finds, walks bool // some query is looked up; some walks the rows
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

// seal prepares every probe and residual once the batch is in, and notes
// which of the two kinds of task the pass needs.
func (pass *tablePass) seal(mode scanMode) {
	for _, p := range pass.probes {
		p.seal(pass.t, mode)
		pass.finds = pass.finds || p.lookup
		pass.walks = pass.walks || !p.lookup
	}
	for i := range pass.residual {
		r := &pass.residual[i]
		r.seal(pass.t, mode)
		pass.finds = pass.finds || r.seeded
		pass.walks = pass.walks || !r.seeded
	}
}

// find appends the matches of every query the pass looks up.
func (pass *tablePass) find(hits []hit) []hit {
	for _, p := range pass.probes {
		if p.lookup {
			hits = p.find(pass.t, hits)
		}
	}
	for i := range pass.residual {
		if pass.residual[i].seeded {
			hits = pass.residual[i].find(pass.t, hits)
		}
	}
	return hits
}

// scan walks rows[lo:hi] for every query the pass does not look up,
// appending to hits: probe by probe, then the residuals row by row. A query
// belongs to exactly one probe or residual, so each query's hits stay in
// row order; the merge reads them per query.
func (pass *tablePass) scan(lo, hi int, hits []hit) []hit {
	for _, p := range pass.probes {
		if !p.lookup {
			hits = p.scan(pass.t, lo, hi, hits)
		}
	}
	if len(pass.residual) == 0 {
		return hits
	}
	for _, r := range pass.t.rows[lo:hi] {
		for j := range pass.residual {
			if q := &pass.residual[j]; !q.seeded && matchAll(q.preds, r.Values) {
				hits = append(hits, hit{qi: int32(q.idx), r: r})
			}
		}
	}
	return hits
}

func (db *Database) selectMultiWorkers(queries []Query, workers int, mode scanMode) ([][]*Row, SelectStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	results := make([][]*Row, len(queries))
	var stats SelectStats

	// Partition (sequential, deterministic): indexed queries run directly;
	// scan queries group by table. Validation errors surface here, before
	// any execution, in input order.
	type scanItem struct {
		idx int
		q   Query
	}
	var indexed []scanItem
	var passes []*tablePass
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
		pass.seal(mode)
	}

	// Task list: one task per indexed query, then per table pass one task
	// for what it looks up and one per row segment of what it walks. Every
	// task writes only its own slot, so the pool needs no locking and the
	// merge below fixes the deterministic order. Match buffers come from a
	// sync.Pool and go back after the merge, so steady-state batches stop
	// re-growing per-task slices.
	type segment struct {
		pass   *tablePass
		find   bool // the pass's lookups; otherwise the walk of rows[lo:hi]
		lo, hi int
		hits   []hit
	}
	var segments []*segment
	segsByPass := make([][]*segment, len(passes))
	for pi, pass := range passes {
		if pass.finds {
			seg := &segment{pass: pass, find: true, hits: getHitBuf()}
			segments = append(segments, seg)
			segsByPass[pi] = append(segsByPass[pi], seg)
		}
		if !pass.walks {
			continue
		}
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
			rows, st, _ := db.Select(indexed[ti].q)
			idxRows[ti], idxStats[ti] = rows, st
			return
		}
		seg := segments[ti-len(indexed)]
		switch {
		case seg.find:
			seg.hits = seg.pass.find(seg.hits)
		case mode == scanReference:
			seg.hits = seg.pass.scanReference(seg.lo, seg.hi, seg.hits)
		default:
			seg.hits = seg.pass.scan(seg.lo, seg.hi, seg.hits)
		}
	})

	// Merge in the fixed sequential order. A query's hits all come from one
	// lookup or from the walk's segments in row order, so each query's rows
	// are in row order. TuplesScanned is the logical size of each pass,
	// however few rows the kernel touched: the scan budget is defined on it.
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
	return results, stats, nil
}
