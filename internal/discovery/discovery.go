// Package discovery implements Stage 2 of Nebula (§6): executing the
// keyword queries generated from an annotation, combining and weighting the
// produced tuples (IdentifyRelatedTuples, Figure 5), adjusting confidences
// with the annotation's focal through the ACG (§6.2), and the approximate
// focal-spreading search that restricts execution to a miniDB of the
// focal's K-hop neighborhood (§6.3).
package discovery

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"nebula/internal/acg"
	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/relational"
	"nebula/internal/trace"
)

// ErrSpamAnnotation flags an annotation whose discovered candidates cover
// an implausible share of the database. The paper assumes spam-like
// annotations ("an annotation that references all (or most) data tuples")
// do not exist and cites click-spam detection [26] for handling them; this
// guard is the minimal defense a production deployment needs: such
// annotations are surfaced to the caller for quarantine instead of
// flooding the verification pipeline. The candidates are still returned
// alongside the error for inspection. The concrete error is a *SpamError
// carrying the counts quarantine tooling needs; errors.Is against this
// sentinel matches it.
var ErrSpamAnnotation = errors.New("discovery: annotation references an implausible share of the database")

// SpamError is the concrete spam-guard error: it records how many
// candidates the annotation produced against how large a database, so
// quarantine tooling can log and threshold without re-running discovery.
type SpamError struct {
	// Candidates is the number of candidate tuples discovered, counted
	// before the TopK and MaxCandidates cuts.
	Candidates int
	// DatabaseRows is the total tuple count of the database searched.
	DatabaseRows int
	// Fraction is the configured SpamFraction threshold that tripped.
	Fraction float64
}

func (e *SpamError) Error() string {
	return fmt.Sprintf("%v: %d candidates over %d tuples (threshold %.2f)",
		ErrSpamAnnotation, e.Candidates, e.DatabaseRows, e.Fraction)
}

// Is makes errors.Is(err, ErrSpamAnnotation) match a *SpamError.
func (e *SpamError) Is(target error) bool { return target == ErrSpamAnnotation }

// Candidate is one predicted attachment: a tuple the annotation is believed
// to reference, with Nebula's confidence and the supporting evidence.
type Candidate struct {
	// Tuple is the candidate data tuple (a row of the full database).
	Tuple *relational.Row
	// Confidence is the normalized confidence in [0,1].
	Confidence float64
	// Evidence lists the IDs of the keyword queries that produced the
	// tuple — the v.evidence reported to verifying experts (§7).
	Evidence []string
}

// Options control the execution strategy.
type Options struct {
	// Shared enables the multi-query shared execution of §6.
	Shared bool
	// FocalAdjustment enables the ACG-based confidence adjustment of §6.2.
	FocalAdjustment bool
	// AdjustmentHops extends the focal adjustment to shortest paths of up
	// to this many hops, multiplying the in-between edge weights (the §6.2
	// extension). 0 or 1 keeps the paper's default of direct edges only —
	// the semantically stronger choice, which the paper prefers to avoid
	// overfitting.
	AdjustmentHops int
	// Spreading enables the approximate focal-based spreading search of
	// §6.3: only the K-hop ACG neighborhood of the focal is searched.
	Spreading bool
	// K is the spreading radius in hops.
	K int
	// RequireStable restricts spreading to a stable ACG (Definition 6.1);
	// when the graph is unstable the search falls back to the full
	// database, as the paper prescribes.
	RequireStable bool
	// SpamFraction, when positive, raises ErrSpamAnnotation if the
	// candidate set exceeds this fraction of the database's tuples.
	SpamFraction float64
	// MaxScannedRows stops keyword execution once this many tuples have
	// been searched; the run degrades to the results produced so far. 0
	// means unlimited.
	MaxScannedRows int
	// MaxCandidates truncates the final candidate list to the N strongest
	// predictions. 0 means unlimited.
	MaxCandidates int
	// MaxWorkers bounds the keyword executor's worker pool. 0 and 1 select
	// the sequential legacy path; n > 1 executes independent keyword work
	// concurrently while keeping results byte-identical to sequential.
	MaxWorkers int
	// Retry is applied to transient searcher errors (see RetryPolicy).
	// The zero value disables retries.
	Retry RetryPolicy
	// TopK, when positive, truncates the final ranked candidate list to
	// the strongest k attachments (before MaxCandidates). Every query
	// still executes; the cut is the caller's requested semantics, not a
	// degradation, so the k kept are exactly the first k of the uncut
	// ranking.
	TopK int
}

// Stats reports the cost of one discovery run.
type Stats struct {
	// Exec aggregates the keyword executor's counters.
	Exec keyword.ExecStats
	// SearchedDB is the number of tuples in the database actually
	// searched: the full database, or the miniDB under spreading.
	SearchedDB int
	// MiniDBUsed reports whether spreading built and used a miniDB.
	MiniDBUsed bool
	// Candidates is the number of candidates produced.
	Candidates int
	// Retries counts searcher re-attempts spent on transient errors.
	Retries int
	// Degraded lists every way this run deviated from the full, unbounded
	// pipeline: budget truncations, cancelled scans, the unstable-ACG
	// spreading fallback, retried transient faults. Empty means the run
	// is exactly what the paper's algorithm would have produced. Callers
	// routing candidates into verification must treat a non-empty list as
	// "do not auto-accept".
	Degraded []string
}

// degrade appends a reason to the run's degradation record.
func (s *Stats) degrade(reason string) { s.Degraded = append(s.Degraded, reason) }

// Discoverer runs the discovery pipeline against one database.
type Discoverer struct {
	db    *relational.Database
	meta  *meta.Repository
	graph *acg.Graph

	// Engine configuration applied to the keyword engines it builds.
	IncludeRelated bool
	// NewSearcher overrides the keyword-search technique. It is invoked
	// with the database to search (the full database, or the spreading
	// miniDB) and must return a ready technique. Nil selects the default
	// metadata-approach engine. Note that pre-processing techniques (e.g.
	// keyword.SymbolTableEngine) pay their indexing pass on every miniDB
	// under spreading — the metadata approach is the natural companion of
	// the spreading search.
	NewSearcher func(db *relational.Database) keyword.Searcher
}

// New builds a Discoverer. graph may be nil when neither focal adjustment
// nor spreading will be requested.
func New(db *relational.Database, repo *meta.Repository, graph *acg.Graph) *Discoverer {
	return &Discoverer{db: db, meta: repo, graph: graph}
}

// IdentifyRelatedTuples implements Figure 5 with the §6.2/§6.3 extensions:
// execute every keyword query (over the full database, or over the focal's
// K-hop miniDB when spreading applies), weight each produced tuple by its
// query's weight, reward tuples produced by multiple queries by summing
// their confidences, apply the focal-based adjustment, and normalize
// relative to the maximum confidence. Tuples already in the focal are
// excluded: Definition 3.4 asks for the *other* related tuples.
func (d *Discoverer) IdentifyRelatedTuples(queries []keyword.Query, focal []relational.TupleID, opts Options) ([]Candidate, Stats, error) {
	return d.IdentifyRelatedTuplesContext(context.Background(), queries, focal, opts)
}

// IdentifyRelatedTuplesContext is IdentifyRelatedTuples under governance:
// ctx is checked at per-query (and per-tuple-batch) granularity inside the
// keyword executor, the Options budgets bound the work, and transient
// searcher errors are retried per Options.Retry. On cancellation or
// deadline the candidates aggregated from the partial execution are
// returned together with a typed ErrCancelled/ErrBudgetExceeded; budget
// truncations are not errors and only mark the run degraded. Every
// deviation from the unbounded pipeline is listed in Stats.Degraded.
func (d *Discoverer) IdentifyRelatedTuplesContext(ctx context.Context, queries []keyword.Query, focal []relational.TupleID, opts Options) ([]Candidate, Stats, error) {
	var stats Stats
	if len(queries) == 0 {
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		// The deadline can fire between query generation and execution;
		// an interrupted run always reports why it is partial.
		stats.degrade(fmt.Sprintf("discovery: interrupted before execution (%v)", err))
		return nil, stats, wrapCtxErr(err)
	}

	// Choose the search database: full, or the spreading miniDB.
	searchDB := d.db
	if opts.Spreading {
		if d.graph == nil {
			return nil, stats, fmt.Errorf("discovery: spreading requires an ACG")
		}
		if !opts.RequireStable || d.graph.Stable() {
			ids := d.graph.Neighborhood(focal, opts.K)
			mini, err := d.db.Subset(ids)
			if err != nil {
				return nil, stats, fmt.Errorf("discovery: %w", err)
			}
			searchDB = mini
			stats.MiniDBUsed = true
		} else {
			// The paper prescribes this fallback (Definition 6.1) but a
			// production operator must be able to see it: the run pays a
			// full-database search the caller asked to avoid.
			stats.degrade(fmt.Sprintf(
				"discovery: ACG unstable; spreading (K=%d) fell back to full-database search", opts.K))
		}
	}
	stats.SearchedDB = searchDB.TotalRows()

	var searcher keyword.Searcher
	if d.NewSearcher != nil {
		searcher = d.NewSearcher(searchDB)
	} else {
		engine := keyword.NewEngine(searchDB, d.meta)
		engine.IncludeRelated = d.IncludeRelated
		searcher = engine
	}

	// Step 1 — execute the queries; incorporate each query's weight.
	// Transient searcher faults are retried with capped backoff; a
	// surviving context error degrades the run to whatever the partial
	// execution produced.
	lim := keyword.Limits{MaxScannedRows: opts.MaxScannedRows, MaxWorkers: opts.MaxWorkers}
	var results map[string][]keyword.Result
	espan, ectx := trace.StartSpan(ctx, "execute")
	retries, err := opts.Retry.do(ctx, func() error {
		var attemptErr error
		var st keyword.ExecStats
		results, st, attemptErr = searcher.ExecuteBatchContext(ectx, queries, opts.Shared, lim)
		stats.Exec.Add(st)
		return attemptErr
	})
	if espan.Enabled() {
		espan.AddInt("keyword_queries", len(queries))
		espan.AddInt("structured_queries", stats.Exec.StructuredQueries)
		espan.AddInt("tuples_scanned", stats.Exec.TuplesScanned)
		espan.AddInt("tuples_returned", stats.Exec.TuplesReturned)
		espan.AddInt("retries", retries)
		espan.End()
	}
	stats.Retries = retries
	if retries > 0 {
		stats.degrade(fmt.Sprintf("discovery: %d transient searcher error(s) retried", retries))
	}
	var execErr error
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancelled or out of budget: aggregate the partial results
			// below and surface the typed error with them.
			execErr = wrapCtxErr(err)
			stats.degrade(fmt.Sprintf("discovery: execution interrupted (%v); candidates are partial", err))
		} else {
			return nil, stats, fmt.Errorf("discovery: search failed: %w", err)
		}
	}
	stats.Degraded = append(stats.Degraded, stats.Exec.Degraded...)

	aspan, _ := trace.StartSpan(ctx, "aggregate")
	type agg struct {
		conf     float64
		evidence []string
	}
	focalSet := make(map[relational.TupleID]struct{}, len(focal))
	for _, f := range focal {
		focalSet[f] = struct{}{}
	}
	byTuple := make(map[relational.TupleID]*agg)
	var order []relational.TupleID // first-seen order for determinism
	for _, q := range queries {
		for _, r := range results[q.ID] {
			if _, isFocal := focalSet[r.Tuple.ID]; isFocal {
				continue
			}
			weighted := r.Confidence * q.Weight
			a, ok := byTuple[r.Tuple.ID]
			if !ok {
				a = &agg{}
				byTuple[r.Tuple.ID] = a
				order = append(order, r.Tuple.ID)
			}
			// Step 2 — group by tuple, summing confidences across queries.
			a.conf += weighted
			a.evidence = append(a.evidence, q.ID)
		}
	}

	if aspan.Enabled() {
		aspan.AddInt("distinct_tuples", len(order))
		aspan.End()
	}

	// §6.2 — focal-based confidence adjustment: for each direct ACG edge
	// e(t, f) to a focal tuple, t.conf += e.weight × t.conf. With
	// AdjustmentHops > 1, the reward extends to multi-hop shortest paths
	// using the product of the in-between edge weights.
	if opts.FocalAdjustment && d.graph != nil {
		jspan, _ := trace.StartSpan(ctx, "adjust_focal")
		if opts.AdjustmentHops > 1 {
			for _, f := range focal {
				weights := d.graph.PathWeights(f, opts.AdjustmentHops)
				for id, a := range byTuple {
					if w := weights[id]; w > 0 {
						a.conf += w * a.conf
					}
				}
			}
		} else {
			for id, a := range byTuple {
				for _, f := range focal {
					if w := d.graph.Weight(id, f); w > 0 {
						a.conf += w * a.conf
					}
				}
			}
		}
		jspan.End()
	}

	// Step 3 — normalize relative to the maximum confidence.
	rspan, _ := trace.StartSpan(ctx, "rank")
	maxConf := 0.0
	for _, a := range byTuple {
		if a.conf > maxConf {
			maxConf = a.conf
		}
	}
	out := make([]Candidate, 0, len(byTuple))
	for _, id := range order {
		a := byTuple[id]
		conf := 0.0
		if maxConf > 0 {
			conf = a.conf / maxConf
		}
		// Resolve the tuple in the full database so callers always hold
		// rows of the primary store, even under spreading.
		row, ok := d.db.Lookup(id)
		if !ok {
			continue
		}
		out = append(out, Candidate{Tuple: row, Confidence: conf, Evidence: a.evidence})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	// The spam guard judges the annotation, not the caller's cut: count
	// every discovered candidate before TopK and MaxCandidates trim it.
	discovered := len(out)
	// Top-k selection is the semantics the caller asked for, not a budget
	// degradation.
	if opts.TopK > 0 && len(out) > opts.TopK {
		out = out[:opts.TopK]
	}
	if opts.MaxCandidates > 0 && len(out) > opts.MaxCandidates {
		stats.degrade(fmt.Sprintf(
			"discovery: candidate budget truncated %d candidates to the strongest %d", len(out), opts.MaxCandidates))
		out = out[:opts.MaxCandidates]
	}
	stats.Candidates = len(out)
	if rspan.Enabled() {
		rspan.AddInt("candidates", len(out))
		rspan.End()
	}
	if execErr != nil {
		return out, stats, execErr
	}
	if opts.SpamFraction > 0 && float64(discovered) > opts.SpamFraction*float64(d.db.TotalRows()) {
		return out, stats, &SpamError{
			Candidates:   discovered,
			DatabaseRows: d.db.TotalRows(),
			Fraction:     opts.SpamFraction,
		}
	}
	return out, stats, nil
}

// NaiveIdentify runs the §4 baseline end to end: the annotation body is one
// giant keyword query over the full database, and the produced tuples keep
// the naive engine's confidence (no grouping reward, no focal adjustment —
// the baseline has none of Nebula's context).
func (d *Discoverer) NaiveIdentify(body string, focal []relational.TupleID) ([]Candidate, Stats) {
	out, stats, _ := d.NaiveIdentifyContext(context.Background(), body, focal, Options{})
	return out, stats
}

// NaiveIdentifyContext is NaiveIdentify under governance: the baseline's
// full-database scan — its defining pathology — polls ctx per tuple batch
// and honors Options.MaxScannedRows/MaxCandidates. Options.TopK cuts the
// ranking first, as in IdentifyRelatedTuplesContext. Partial results come
// back with a typed ErrCancelled/ErrBudgetExceeded on interruption.
func (d *Discoverer) NaiveIdentifyContext(ctx context.Context, body string, focal []relational.TupleID, opts Options) ([]Candidate, Stats, error) {
	var stats Stats
	engine := keyword.NewEngine(d.db, d.meta)
	nspan, _ := trace.StartSpan(ctx, "naive_scan")
	rs, execStats, err := engine.NaiveSearchContext(ctx, body, keyword.Limits{MaxScannedRows: opts.MaxScannedRows})
	if nspan.Enabled() {
		nspan.AddInt("tuples_scanned", execStats.TuplesScanned)
		nspan.AddInt("tuples_returned", execStats.TuplesReturned)
		nspan.End()
	}
	stats.Exec = execStats
	stats.Degraded = append(stats.Degraded, execStats.Degraded...)
	var execErr error
	if err != nil {
		execErr = wrapCtxErr(err)
		stats.degrade(fmt.Sprintf("discovery: naive scan interrupted (%v); candidates are partial", err))
	}
	stats.SearchedDB = d.db.TotalRows()
	focalSet := make(map[relational.TupleID]struct{}, len(focal))
	for _, f := range focal {
		focalSet[f] = struct{}{}
	}
	out := make([]Candidate, 0, len(rs))
	for _, r := range rs {
		if _, isFocal := focalSet[r.Tuple.ID]; isFocal {
			continue
		}
		out = append(out, Candidate{Tuple: r.Tuple, Confidence: r.Confidence, Evidence: []string{"naive"}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	if opts.TopK > 0 && len(out) > opts.TopK {
		out = out[:opts.TopK]
	}
	if opts.MaxCandidates > 0 && len(out) > opts.MaxCandidates {
		stats.degrade(fmt.Sprintf(
			"discovery: candidate budget truncated %d candidates to the strongest %d", len(out), opts.MaxCandidates))
		out = out[:opts.MaxCandidates]
	}
	stats.Candidates = len(out)
	return out, stats, execErr
}
