package keyword

import (
	"context"
	"fmt"

	"nebula/internal/meta"
	"nebula/internal/relational"
	"nebula/internal/trace"
)

// Engine executes keyword queries against a database using NebulaMeta for
// keyword-to-schema mapping.
type Engine struct {
	db   *relational.Database
	meta *meta.Repository

	// MaxMappingsPerKeyword caps candidate interpretations per keyword.
	MaxMappingsPerKeyword int
	// MaxConfigurations caps configurations per query.
	MaxConfigurations int
	// MinMappingWeight discards keyword interpretations weaker than this
	// when deriving mappings from metadata (hinted mappings are exempt).
	MinMappingWeight float64
	// IncludeRelated, when set, expands each matched tuple with its direct
	// FK–PK neighbors at RelatedDiscount of the tuple's confidence.
	IncludeRelated bool
	// RelatedDiscount is the confidence multiplier for related tuples.
	RelatedDiscount float64
}

// NewEngine builds a keyword search engine over db. The repository supplies
// the metadata; it may be bound to a different (larger) database with the
// same schema — the focal-spreading search exploits exactly that by running
// the engine over a miniDB while keeping the full database's metadata.
func NewEngine(db *relational.Database, repo *meta.Repository) *Engine {
	return &Engine{
		db:                    db,
		meta:                  repo,
		MaxMappingsPerKeyword: 3,
		MaxConfigurations:     16,
		MinMappingWeight:      0.3,
		RelatedDiscount:       0.4,
	}
}

// Database returns the engine's bound database.
func (e *Engine) Database() *relational.Database { return e.db }

// Execute runs one keyword query: it enumerates configurations, executes
// each configuration's structured query, and returns the union of produced
// tuples. A tuple satisfying several configurations keeps the highest
// confidence (the engine's "internal criteria", §6.1).
func (e *Engine) Execute(q Query) ([]Result, ExecStats, error) {
	return e.execute(context.Background(), q)
}

func (e *Engine) execute(ctx context.Context, q Query) ([]Result, ExecStats, error) {
	var stats ExecStats
	configs := e.Configurations(q)
	// No size hint: most keyword queries produce zero or a handful of
	// tuples, and an unhinted map defers bucket allocation until first use.
	byTuple := make(map[relational.TupleID]int)
	var out []Result
	for _, cfg := range configs {
		rows, st, err := e.db.SelectContext(ctx, cfg.Structured)
		if err != nil {
			return nil, stats, fmt.Errorf("execute %s: %w", q.ID, err)
		}
		stats.StructuredQueries++
		stats.TuplesScanned += st.TuplesScanned
		if cfg.Join {
			rows = e.joinProject(rows, cfg.Table)
		}
		stats.TuplesReturned += len(rows)
		out = e.mergeRows(out, byTuple, rows, cfg.Confidence, q.ID)
	}
	return out, stats, nil
}

// joinProject maps rows across their FK–PK relationships into the target
// table — the result-assembly half of a join configuration.
func (e *Engine) joinProject(rows []*relational.Row, targetTable string) []*relational.Row {
	var out []*relational.Row
	seen := make(map[relational.TupleID]struct{})
	for _, r := range rows {
		for _, rel := range e.db.Related(r) {
			if !equalFold(rel.ID.Table, targetTable) {
				continue
			}
			if _, dup := seen[rel.ID]; dup {
				continue
			}
			seen[rel.ID] = struct{}{}
			out = append(out, rel)
		}
	}
	return out
}

// mergeRows folds rows produced at the given confidence into the result
// set, applying the optional FK–PK related expansion. When a tuple is
// produced again at a strictly higher confidence, the result is
// re-attributed to the producing query; an equal confidence keeps the
// first query ID, so ties resolve deterministically to the earliest
// producer whatever order later configurations arrive in.
func (e *Engine) mergeRows(out []Result, byTuple map[relational.TupleID]int, rows []*relational.Row, conf float64, queryID string) []Result {
	add := func(r *relational.Row, c float64) {
		if i, ok := byTuple[r.ID]; ok {
			if c > out[i].Confidence {
				out[i].Confidence = c
				out[i].Query = queryID
			}
			return
		}
		byTuple[r.ID] = len(out)
		out = append(out, Result{Tuple: r, Confidence: c, Query: queryID})
	}
	for _, r := range rows {
		add(r, conf)
		if e.IncludeRelated {
			for _, rel := range e.db.Related(r) {
				add(rel, conf*e.RelatedDiscount)
			}
		}
	}
	return out
}

// ExecuteBatch runs a set of keyword queries (all generated from one
// annotation). With shared=false every query executes in isolation, exactly
// as Execute would. With shared=true the executor applies the §6 shared
// multi-query optimization: identical structured queries across the batch
// (detected by fingerprint) execute only once, and the result rows are
// distributed to every (query, configuration) that needed them.
func (e *Engine) ExecuteBatch(qs []Query, shared bool) (map[string][]Result, ExecStats, error) {
	return e.ExecuteBatchContext(context.Background(), qs, shared, Limits{})
}

// ExecuteBatchContext is ExecuteBatch under governance: between queries —
// and between structured-query chunks on the shared path — the executor
// checks ctx and the scan budget. Cancellation returns the results
// completed so far together with the context's error; a spent scan budget
// stops execution, keeps the partial results, and records the reason in
// ExecStats.Degraded. An ungoverned call (background context, zero Limits)
// takes the exact legacy path.
//
// Limits.MaxWorkers > 1 executes independent work concurrently: distinct
// queries on the unshared path, structured-query chunks on the governed
// shared path, and row segments of the shared scans on the ungoverned one.
// Execution order is the only thing that changes — results are folded in
// the sequential order afterwards, applying the exact sequential
// cancellation and budget rules, so output (tuples, confidences, Degraded
// reasons, truncation point) is byte-identical at any worker count. Only
// the scheduling fields of ExecStats (Workers, ParallelBatches) differ.
func (e *Engine) ExecuteBatchContext(ctx context.Context, qs []Query, shared bool, lim Limits) (map[string][]Result, ExecStats, error) {
	var stats ExecStats
	results := make(map[string][]Result, len(qs))
	gov := governed(ctx, lim)
	workers := lim.Workers()
	stats.Workers = workers
	if !shared {
		if workers > 1 {
			return e.executeUnsharedParallel(ctx, qs, lim, gov, workers)
		}
		for _, q := range qs {
			if gov {
				if err := ctx.Err(); err != nil {
					return results, stats, err
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					return results, stats, nil
				}
			}
			rs, st, err := e.execute(ctx, q)
			if err != nil {
				return results, stats, err
			}
			stats.Add(st)
			results[q.ID] = rs
		}
		return results, stats, nil
	}

	// Plan: enumerate configurations for each query up front.
	pspan, _ := trace.StartSpan(ctx, "plan")
	type need struct {
		queryIdx  int
		conf      float64
		join      bool
		joinTable string
	}
	plans := make([][]Configuration, len(qs))
	wanted := make(map[string][]need) // fingerprint -> consumers
	ordered := make([]string, 0)      // deterministic execution order
	structured := make(map[string]relational.Query)
	for qi, q := range qs {
		if gov {
			if err := ctx.Err(); err != nil {
				return results, stats, err
			}
		}
		plans[qi] = e.Configurations(q)
		for _, cfg := range plans[qi] {
			fp := cfg.Structured.Fingerprint()
			if _, seen := wanted[fp]; !seen {
				ordered = append(ordered, fp)
				structured[fp] = cfg.Structured
			} else {
				stats.SharedQueries++
			}
			wanted[fp] = append(wanted[fp], need{
				queryIdx: qi, conf: cfg.Confidence,
				join: cfg.Join, joinTable: cfg.Table,
			})
		}
	}
	if pspan.Enabled() {
		pspan.AddInt("keyword_queries", len(qs))
		pspan.AddInt("distinct_structured", len(ordered))
		pspan.AddInt("shared_structured", stats.SharedQueries)
		pspan.End()
	}

	// Execute the distinct structured queries: identical queries were
	// deduplicated above, and SelectMultiWorkers shares the physical scans
	// of the remainder (one pass per table for all scan queries).
	// Ungoverned runs submit everything in one batch; governed runs chunk
	// the batch so cancellation and the scan budget are honored
	// mid-execution.
	rowSets := make([][]*relational.Row, len(ordered))
	executed := len(ordered) // fingerprints actually executed
	var cancelErr error
	switch {
	case workers > 1 && !gov:
		// Ungoverned parallel: one batch, segment-parallel shared scans.
		if len(ordered) > 0 {
			batch := make([]relational.Query, len(ordered))
			for i, fp := range ordered {
				batch[i] = structured[fp]
			}
			sets, st, err := e.db.SelectMultiWorkersContext(ctx, batch, workers)
			if err != nil {
				return results, stats, fmt.Errorf("shared execute: %w", err)
			}
			copy(rowSets, sets)
			stats.StructuredQueries += len(batch)
			stats.TuplesScanned += st.TuplesScanned
			stats.ParallelBatches++
		}
	case workers > 1:
		// Governed parallel: chunks execute optimistically in waves of
		// `workers`, then fold in chunk order applying the exact sequential
		// cancellation/budget rule before each chunk. Per-chunk scan counts
		// are deterministic, so the prefix sums — and therefore the
		// truncation point and Degraded reasons — match workers == 1; at
		// most workers-1 chunks of speculative work are discarded.
		type chunkOut struct {
			sets [][]*relational.Row
			st   relational.SelectStats
			err  error
			done bool
		}
		nChunks := (len(ordered) + sharedChunk - 1) / sharedChunk
		outs := make([]chunkOut, nChunks)
		runChunk := func(ci int) {
			lo := ci * sharedChunk
			hi := lo + sharedChunk
			if hi > len(ordered) {
				hi = len(ordered)
			}
			batch := make([]relational.Query, hi-lo)
			for i := lo; i < hi; i++ {
				batch[i-lo] = structured[ordered[i]]
			}
			outs[ci].sets, outs[ci].st, outs[ci].err = e.db.SelectMultiWorkersContext(ctx, batch, 1)
			outs[ci].done = true
		}
		stop := false
		for waveLo := 0; waveLo < nChunks && !stop; waveLo += workers {
			waveHi := waveLo + workers
			if waveHi > nChunks {
				waveHi = nChunks
			}
			runPool(ctx, waveHi-waveLo, workers, func(i int) { runChunk(waveLo + i) })
			stats.ParallelBatches++
			for ci := waveLo; ci < waveHi; ci++ {
				lo := ci * sharedChunk
				if err := ctx.Err(); err != nil {
					executed = lo
					cancelErr = err
					stop = true
					break
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					executed = lo
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					stop = true
					break
				}
				if !outs[ci].done {
					// The pool skips tasks after a cancellation observed
					// mid-wave; ctx is live here, so run the chunk inline.
					runChunk(ci)
				}
				if outs[ci].err != nil {
					return results, stats, fmt.Errorf("shared execute: %w", outs[ci].err)
				}
				copy(rowSets[lo:lo+len(outs[ci].sets)], outs[ci].sets)
				stats.StructuredQueries += len(outs[ci].sets)
				stats.TuplesScanned += outs[ci].st.TuplesScanned
			}
		}
	default:
		chunk := len(ordered)
		if gov && chunk > sharedChunk {
			chunk = sharedChunk
		}
		for lo := 0; lo < len(ordered); lo += chunk {
			hi := lo + chunk
			if hi > len(ordered) {
				hi = len(ordered)
			}
			if gov {
				if err := ctx.Err(); err != nil {
					executed = lo
					cancelErr = err
					break
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					executed = lo
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					break
				}
			}
			batch := make([]relational.Query, hi-lo)
			for i := lo; i < hi; i++ {
				batch[i-lo] = structured[ordered[i]]
			}
			sets, st, err := e.db.SelectMultiWorkersContext(ctx, batch, 1)
			if err != nil {
				return results, stats, fmt.Errorf("shared execute: %w", err)
			}
			copy(rowSets[lo:hi], sets)
			stats.StructuredQueries += len(batch)
			stats.TuplesScanned += st.TuplesScanned
		}
	}

	mspan, _ := trace.StartSpan(ctx, "merge")
	byTuple := make([]map[relational.TupleID]int, len(qs))
	merged := make([][]Result, len(qs))
	for i := range byTuple {
		byTuple[i] = make(map[relational.TupleID]int)
	}
	for i, fp := range ordered[:executed] {
		rows := rowSets[i]
		for _, n := range wanted[fp] {
			consumed := rows
			if n.join {
				consumed = e.joinProject(rows, n.joinTable)
			}
			stats.TuplesReturned += len(consumed)
			merged[n.queryIdx] = e.mergeRows(merged[n.queryIdx], byTuple[n.queryIdx], consumed, n.conf, qs[n.queryIdx].ID)
		}
	}
	for qi, q := range qs {
		results[q.ID] = merged[qi]
	}
	if mspan.Enabled() {
		mspan.AddInt("tuples_returned", stats.TuplesReturned)
		mspan.End()
	}
	return results, stats, cancelErr
}

// executeUnsharedParallel is the unshared path with a worker pool: queries
// execute optimistically in waves of `workers`, and the fold applies the
// sequential governance rules (context first, then scan budget) in query
// order before consuming each result. The accumulated TuplesScanned at each
// fold step equals the sequential prefix sum, so partial results under a
// spent budget — and the Degraded reason recording it — are identical to
// the workers == 1 path.
func (e *Engine) executeUnsharedParallel(ctx context.Context, qs []Query, lim Limits, gov bool, workers int) (map[string][]Result, ExecStats, error) {
	var stats ExecStats
	stats.Workers = workers
	results := make(map[string][]Result, len(qs))
	type qOut struct {
		rs   []Result
		st   ExecStats
		err  error
		done bool
	}
	outs := make([]qOut, len(qs))
	run := func(i int) {
		outs[i].rs, outs[i].st, outs[i].err = e.execute(ctx, qs[i])
		outs[i].done = true
	}
	for waveLo := 0; waveLo < len(qs); waveLo += workers {
		waveHi := waveLo + workers
		if waveHi > len(qs) {
			waveHi = len(qs)
		}
		runPool(ctx, waveHi-waveLo, workers, func(i int) { run(waveLo + i) })
		stats.ParallelBatches++
		for i := waveLo; i < waveHi; i++ {
			if gov {
				if err := ctx.Err(); err != nil {
					return results, stats, err
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					return results, stats, nil
				}
			}
			if !outs[i].done {
				run(i)
			}
			if outs[i].err != nil {
				return results, stats, outs[i].err
			}
			stats.Add(outs[i].st)
			results[qs[i].ID] = outs[i].rs
		}
	}
	return results, stats, nil
}
