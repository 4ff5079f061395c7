package nebula

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"nebula/internal/relational"
	"nebula/internal/sqlish"
)

// CommandResult is the outcome of one ExecCommand call: a message for
// commands, or a table for queries and listings.
type CommandResult struct {
	// Message summarizes command-style statements ("attachment v3
	// verified").
	Message string
	// Columns and Rows carry tabular results (SELECT, LIST PENDING,
	// DISCOVER, PROCESS).
	Columns []string
	Rows    [][]string
}

// ExecCommand parses and executes one statement of Nebula's extended SQL
// surface against the engine. Supported statements:
//
//	VERIFY ATTACHMENT <vid>        accept a pending verification task
//	REJECT ATTACHMENT <vid>        reject a pending verification task
//	LIST PENDING [LIMIT n]         show the pending-task system table
//	ANNOTATE <tbl> '<pk>' AS '<id>' BODY '<text>'
//	                               insert an annotation attached to a tuple
//	DISCOVER '<annotation-id>' [TIMEOUT ms] [MAX n] [CACHE ON|OFF|bytes]
//	                           [TRACE ON|OFF] [TOPK k]
//	                               run discovery, report candidates; TIMEOUT
//	                               bounds the run's wall clock (partial
//	                               candidates are reported when it fires),
//	                               MAX keeps only the n strongest candidates,
//	                               CACHE overrides result caching for
//	                               this run (a byte count resizes the
//	                               engine's cache budget), TRACE ON
//	                               appends the run's span tree to the result
//	                               message (observe-only), and TOPK keeps
//	                               the strongest k attachments
//	PROCESS '<annotation-id>' [TIMEOUT ms] [MAX n] [CACHE ON|OFF|bytes]
//	                          [TRACE ON|OFF] [TOPK k]
//	                               run discovery + verification routing under
//	                               the same governors; an interrupted run
//	                               submits nothing to verification
//	SELECT cols FROM tbl [WHERE col = lit [AND ...]] [WITH ANNOTATIONS]
//	                               query with optional annotation propagation
//
// The `VERIFY | REJECT ATTACHMENT` commands are the paper's §7 extension
// (the spelling ATTACHEMENT is accepted too); the rest round out the
// surface a curator needs to operate the engine without writing Go.
//
// With a WAL attached, a statement returns only once the records it
// appended are durable, as the matching Engine method does.
func (e *Engine) ExecCommand(command string) (*CommandResult, error) {
	stmt, err := sqlish.Parse(command)
	if err != nil {
		return nil, err
	}
	var res *CommandResult
	err = e.write(allShards, func() (err error) {
		res, err = e.execStatement(stmt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// execStatement runs one parsed statement. Caller holds e.mu in write mode.
func (e *Engine) execStatement(stmt sqlish.Statement) (*CommandResult, error) {
	switch s := stmt.(type) {
	case *sqlish.VerifyStmt:
		if err := e.verdict(s.VID, true); err != nil {
			return nil, err
		}
		return &CommandResult{Message: fmt.Sprintf("attachment v%d verified", s.VID)}, nil
	case *sqlish.RejectStmt:
		if err := e.verdict(s.VID, false); err != nil {
			return nil, err
		}
		return &CommandResult{Message: fmt.Sprintf("attachment v%d rejected", s.VID)}, nil
	case *sqlish.ListPendingStmt:
		return e.execListPending(s)
	case *sqlish.AnnotateStmt:
		return e.execAnnotate(s)
	case *sqlish.DiscoverStmt:
		return e.execDiscover(s.ID, false, s.TimeoutMillis, s.MaxCandidates, s.Parallel, s.Cache, s.CacheBytes, s.Trace, s.TopK)
	case *sqlish.ProcessStmt:
		return e.execDiscover(s.ID, true, s.TimeoutMillis, s.MaxCandidates, s.Parallel, s.Cache, s.CacheBytes, s.Trace, s.TopK)
	case *sqlish.SelectStmt:
		return e.execSelect(s)
	default:
		return nil, fmt.Errorf("nebula: unsupported statement %T", stmt)
	}
}

func (e *Engine) execListPending(s *sqlish.ListPendingStmt) (*CommandResult, error) {
	res := &CommandResult{Columns: []string{"vid", "annotation", "tuple", "confidence", "evidence"}}
	tasks := e.manager.PendingTasks()
	if s.ByPriority {
		tasks = e.manager.PendingTasksByPriority()
	}
	for _, task := range tasks {
		if s.Limit > 0 && len(res.Rows) >= s.Limit {
			break
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("v%d", task.VID),
			string(task.Annotation),
			task.Tuple.String(),
			fmt.Sprintf("%.3f", task.Confidence),
			strings.Join(task.Evidence, " "),
		})
	}
	res.Message = fmt.Sprintf("%d pending task(s)", len(res.Rows))
	return res, nil
}

func (e *Engine) execAnnotate(s *sqlish.AnnotateStmt) (*CommandResult, error) {
	t, ok := e.db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("nebula: unknown table %q", s.Table)
	}
	pkCol, _ := t.Schema().Column(t.Schema().PrimaryKey)
	pk, err := relational.ParseValue(pkCol.Type, s.PK)
	if err != nil {
		return nil, fmt.Errorf("nebula: bad primary key literal: %w", err)
	}
	row, ok := t.GetByPK(pk)
	if !ok {
		return nil, fmt.Errorf("nebula: no %s tuple with %s = %q", s.Table, t.Schema().PrimaryKey, s.PK)
	}
	a := &Annotation{ID: AnnotationID(s.ID), Body: s.Body}
	if _, err := e.commit(recAddAnnotation(a, []TupleID{row.ID})); err != nil {
		return nil, err
	}
	return &CommandResult{Message: fmt.Sprintf("annotation %q attached to %s", s.ID, row.ID)}, nil
}

func (e *Engine) execDiscover(id string, process bool, timeoutMillis int64, maxCandidates, parallel int, cacheMode string, cacheBytes int64, traced bool, topK int) (*CommandResult, error) {
	ctx := context.Background()
	if timeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMillis)*time.Millisecond)
		defer cancel()
	}
	if cacheBytes > 0 {
		// `CACHE <bytes>` is the live-resize half of the governor: it
		// adjusts the engine's budget (the caller already holds e.mu).
		if err := e.setCacheLimit(cacheBytes); err != nil {
			return nil, err
		}
	}
	// Per-statement governance rides the same RequestOptions overlay the
	// serving layer uses; the engine's configuration is never touched.
	opts := RequestOptions{MaxCandidates: maxCandidates, Parallelism: parallel, Cache: cacheMode, Trace: traced, TopK: topK}.apply(e.opts)
	res := &CommandResult{Columns: []string{"tuple", "confidence", "evidence", "routing"}}
	var (
		disc    *Discovery
		outcome VerificationOutcome
		err     error
	)
	if process {
		disc, outcome, err = e.process(ctx, AnnotationID(id), opts)
	} else {
		disc, err = e.discoverByID(ctx, AnnotationID(id), opts)
	}
	interrupted := err != nil && (errors.Is(err, ErrCancelled) || errors.Is(err, ErrBudgetExceeded))
	if err != nil && !interrupted {
		return nil, err
	}
	routing := make(map[TupleID]string)
	for _, t := range outcome.Accepted {
		routing[t.Tuple] = "auto-accepted"
	}
	for _, t := range outcome.Pending {
		routing[t.Tuple] = fmt.Sprintf("pending v%d", t.VID)
	}
	for _, t := range outcome.Rejected {
		routing[t.Tuple] = "auto-rejected"
	}
	for _, c := range disc.Candidates {
		res.Rows = append(res.Rows, []string{
			c.Tuple.ID.String(), fmt.Sprintf("%.3f", c.Confidence),
			strings.Join(c.Evidence, " "), routing[c.Tuple.ID],
		})
	}
	switch {
	case interrupted:
		res.Message = fmt.Sprintf("interrupted (%v): %d partial candidates, nothing routed", err, len(disc.Candidates))
	case process:
		res.Message = fmt.Sprintf("%d candidates: %d accepted, %d pending, %d rejected",
			len(disc.Candidates), len(outcome.Accepted), len(outcome.Pending), len(outcome.Rejected))
	default:
		res.Message = fmt.Sprintf("%d candidates from %d queries", len(disc.Candidates), len(disc.Queries))
	}
	if degraded := disc.Degraded(); len(degraded) > 0 {
		res.Message += "; degraded: " + strings.Join(degraded, " | ")
	}
	if disc.Trace != nil {
		res.Message += "\ntrace:\n" + disc.Trace.String()
	}
	return res, nil
}

func (e *Engine) execSelect(s *sqlish.SelectStmt) (*CommandResult, error) {
	t, ok := e.db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("nebula: unknown table %q", s.Table)
	}
	schema := t.Schema()
	// Resolve projection.
	projected := s.Columns
	if len(projected) == 0 {
		projected = schema.ColumnNames()
	} else {
		for _, c := range projected {
			if _, ok := schema.ColumnIndex(c); !ok {
				return nil, fmt.Errorf("nebula: table %s has no column %q", s.Table, c)
			}
		}
	}
	// Build predicates with type coercion.
	q := StructuredQuery{Table: schema.Name}
	for _, cond := range s.Where {
		col, ok := schema.Column(cond.Column)
		if !ok {
			return nil, fmt.Errorf("nebula: table %s has no column %q", s.Table, cond.Column)
		}
		operand, err := relational.ParseValue(col.Type, cond.Value)
		if err != nil {
			return nil, fmt.Errorf("nebula: literal for %s: %w", cond.Column, err)
		}
		q.Predicates = append(q.Predicates, Predicate{Column: col.Name, Op: OpEq, Operand: operand})
	}

	res := &CommandResult{Columns: append([]string(nil), projected...)}
	if s.WithAnnotations {
		res.Columns = append(res.Columns, "annotations")
		prs, err := e.store.PropagateQuery(e.db, q, s.Columns)
		if err != nil {
			return nil, err
		}
		for _, pr := range prs {
			row := projectRow(pr.Row, projected)
			var anns []string
			for i, a := range pr.Annotations {
				if pr.Confidences[i] < 1 {
					anns = append(anns, fmt.Sprintf("%s(%.2f)", a.ID, pr.Confidences[i]))
				} else {
					anns = append(anns, string(a.ID))
				}
			}
			row = append(row, strings.Join(anns, ", "))
			res.Rows = append(res.Rows, row)
		}
	} else {
		rows, _, err := e.db.Select(q)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			res.Rows = append(res.Rows, projectRow(r, projected))
		}
	}
	res.Message = fmt.Sprintf("%d row(s)", len(res.Rows))
	return res, nil
}

func projectRow(r *Row, cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		v, _ := r.Get(c)
		out[i] = v.Str()
	}
	return out
}
