package nebula_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nebula"
	"nebula/internal/workload"
)

// engineFixture builds a tiny synthetic dataset and an engine layered on
// its pre-annotated state.
func engineFixture(t testing.TB, opts nebula.Options) (*nebula.Engine, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestNewValidation(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	bad := nebula.DefaultOptions()
	bad.Epsilon = 2
	if _, err := nebula.New(ds.DB, ds.Meta, bad); err == nil {
		t.Error("invalid epsilon accepted")
	}
	bad = nebula.DefaultOptions()
	bad.Bounds = nebula.Bounds{Lower: 0.9, Upper: 0.1}
	if _, err := nebula.New(ds.DB, ds.Meta, bad); err == nil {
		t.Error("invalid bounds accepted")
	}
	if _, err := nebula.New(nil, ds.Meta, nebula.DefaultOptions()); err == nil {
		t.Error("nil db accepted")
	}
}

func TestAddAnnotationValidatesTargets(t *testing.T) {
	e, _ := engineFixture(t, nebula.DefaultOptions())
	err := e.AddAnnotation(&nebula.Annotation{ID: "x", Body: "b"},
		[]nebula.TupleID{{Table: "Gene", Key: "s:missing"}})
	if err == nil {
		t.Error("dangling attach target accepted")
	}
}

// TestEndToEndDiscovery inserts workload annotations with Δ=1 focal and
// checks that Process recovers a meaningful share of the hidden
// attachments, improving the database's F_N.
func TestEndToEndDiscovery(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())

	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	var recovered, hiddenTotal int
	for _, spec := range specs {
		focal := spec.Focal(1)
		if err := e.AddAnnotation(spec.Ann, focal); err != nil {
			t.Fatal(err)
		}
		disc, outcome, err := e.Process(spec.Ann.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(disc.Queries) == 0 {
			t.Fatalf("%s: no queries generated from %q", spec.Ann.ID, spec.Ann.Body)
		}
		// Resolve pending tasks with the ground-truth oracle.
		if _, _, err := e.ResolveWithOracle(spec.Ann.ID, nebula.IdealOracle(ds.Ideal)); err != nil {
			t.Fatal(err)
		}
		_ = outcome
		// Count recovered hidden attachments.
		for _, h := range spec.Hidden(1) {
			hiddenTotal++
			if att, ok := e.Store().Edge(spec.Ann.ID, h); ok && att.Type == nebula.TrueAttachment {
				recovered++
			}
		}
	}
	if hiddenTotal == 0 {
		t.Fatal("no hidden attachments in fixture")
	}
	ratio := float64(recovered) / float64(hiddenTotal)
	if ratio < 0.6 {
		t.Errorf("recovered only %d/%d (%.0f%%) hidden attachments", recovered, hiddenTotal, 100*ratio)
	}
}

func TestProcessImprovesQuality(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	spec := ds.WorkloadSet(1000, workload.RefClass{Min: 4, Max: 6})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	before := e.Quality(ds.Ideal)
	if _, _, err := e.Process(spec.Ann.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ResolveWithOracle(spec.Ann.ID, nebula.IdealOracle(ds.Ideal)); err != nil {
		t.Fatal(err)
	}
	after := e.Quality(ds.Ideal)
	if after.FalseNegativeRatio >= before.FalseNegativeRatio {
		t.Errorf("F_N did not improve: %f -> %f", before.FalseNegativeRatio, after.FalseNegativeRatio)
	}
}

func TestNaiveDiscoverIsNoisier(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	spec := ds.WorkloadSet(100, workload.RefClass{Min: 1, Max: 3})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	nebulaDisc, err := e.Discover(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	naiveDisc, err := e.NaiveDiscover(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(naiveDisc.Candidates) <= len(nebulaDisc.Candidates) {
		t.Errorf("naive %d candidates vs nebula %d — expected naive to be noisier",
			len(naiveDisc.Candidates), len(nebulaDisc.Candidates))
	}
	if naiveDisc.ExecStats.Exec.TuplesScanned < e.DB().TotalRows() {
		t.Error("naive should scan the whole database")
	}
}

// TestNaiveDiscoverHonorsTopK holds the naive baseline to TopK, per
// request and engine-wide: both keep exactly the first candidate of the
// uncut naive run.
func TestNaiveDiscoverHonorsTopK(t *testing.T) {
	const id = "wl:50:L1-3:0"
	naive := func(opts nebula.Options, req nebula.RequestOptions) []string {
		t.Helper()
		e, ds := engineFixture(t, opts)
		var spec *workload.AnnotationSpec
		for _, s := range ds.Workload {
			if s.Ann.ID == id {
				spec = s
			}
		}
		if spec == nil {
			t.Fatalf("workload has no annotation %s", id)
		}
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
		disc, err := e.NaiveDiscoverRequest(context.Background(), id, req)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range disc.Candidates {
			out = append(out, fmt.Sprintf("%s %b", c.Tuple.ID, c.Confidence))
		}
		return out
	}
	full := naive(nebula.DefaultOptions(), nebula.RequestOptions{})
	if len(full) < 2 {
		t.Fatalf("uncut naive run found %d candidates; a cut at 1 proves nothing", len(full))
	}
	engineWide := nebula.DefaultOptions()
	engineWide.TopK = 1
	for name, got := range map[string][]string{
		"request": naive(nebula.DefaultOptions(), nebula.RequestOptions{TopK: 1}),
		"engine":  naive(engineWide, nebula.RequestOptions{}),
	} {
		if !reflect.DeepEqual(got, full[:1]) {
			t.Errorf("%s TopK=1: got %d candidates, want only %v", name, len(got), full[0])
		}
	}
}

func TestVerifyRejectCommands(t *testing.T) {
	opts := nebula.DefaultOptions()
	// Force everything into the pending band.
	opts.Bounds = nebula.Bounds{Lower: 0, Upper: 1}
	e, ds := engineFixture(t, opts)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[1]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	_, outcome, err := e.Process(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Pending) == 0 {
		t.Fatal("expected pending tasks with [0,1] bounds")
	}
	tasks := e.PendingTasks()
	if len(tasks) != len(outcome.Pending) {
		t.Fatalf("pending table: %d vs %d", len(tasks), len(outcome.Pending))
	}
	if err := e.VerifyAttachment(tasks[0].VID); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Store().Edge(spec.Ann.ID, tasks[0].Tuple); !ok {
		t.Error("verified attachment missing")
	}
	if len(tasks) > 1 {
		if err := e.RejectAttachment(tasks[1].VID); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.VerifyAttachment(99999); err == nil {
		t.Error("verify of unknown vid should fail")
	}
	if err := e.RejectAttachment(99999); err == nil {
		t.Error("reject of unknown vid should fail")
	}
}

func TestSpreadingEngineOption(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Spreading = true
	opts.SpreadingK = 2
	e, ds := engineFixture(t, opts)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[2]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(2)); err != nil {
		t.Fatal(err)
	}
	disc, err := e.Discover(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !disc.ExecStats.MiniDBUsed {
		t.Error("spreading did not build a miniDB")
	}
	if disc.ExecStats.SearchedDB >= e.DB().TotalRows() {
		t.Error("spreading searched the whole database")
	}
}

func TestAutomaticKSelection(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Spreading = true
	opts.SpreadingK = 0 // auto
	opts.SpreadingCoverage = 0.9
	e, ds := engineFixture(t, opts)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 1, Max: 3})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	// Empty profile falls back to K=3; the discover must still work.
	disc, err := e.Discover(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !disc.ExecStats.MiniDBUsed {
		t.Error("auto-K spreading did not run")
	}
}

func TestSymbolTableTechnique(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.SearchTechnique = nebula.TechniqueSymbolTable
	e, ds := engineFixture(t, opts)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[3]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	disc, err := e.Discover(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The alternative technique must still recover a good share of the
	// hidden references.
	hidden := map[nebula.TupleID]bool{}
	for _, h := range spec.Hidden(1) {
		hidden[h] = true
	}
	found := 0
	for _, c := range disc.Candidates {
		if hidden[c.Tuple.ID] {
			found++
		}
	}
	if found == 0 {
		t.Errorf("symbol-table technique found none of %d hidden refs: %v", len(hidden), disc.Candidates)
	}
	// Index staleness is a documented property: new tuples appear only
	// after RefreshSearchIndex.
	e.RefreshSearchIndex()
	if _, err := e.Discover(spec.Ann.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSpamFractionOption(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.SpamFraction = 2 // invalid
	ds, err := workload.Generate(workload.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nebula.New(ds.DB, ds.Meta, opts); err == nil {
		t.Error("invalid spam fraction accepted")
	}
	opts.SpamFraction = 0.5
	opts.SearchTechnique = "bogus"
	if _, err := nebula.New(ds.DB, ds.Meta, opts); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestTuneBounds(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	var training []nebula.TrainingExample
	for _, spec := range ds.TrainingSet(15) {
		training = append(training, nebula.TrainingExample{
			Annotation: spec.Ann,
			Ideal:      spec.Related,
		})
	}
	cfg := nebula.DefaultBoundsConfig()
	bounds, evals, err := e.TuneBounds(training, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) == 0 {
		t.Fatal("no evaluations")
	}
	if e.Bounds() != bounds {
		t.Error("tuned bounds not installed")
	}
}

func TestPropagateQueryThroughEngine(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	// Pick a base annotation and query one of its tuples.
	spec := ds.Base[0]
	target := spec.Related[0]
	row, ok := e.DB().Lookup(target)
	if !ok {
		t.Fatal("fixture tuple missing")
	}
	pk := row.MustGet(row.Schema().PrimaryKey)
	out, err := e.PropagateQuery(nebula.StructuredQuery{
		Table: target.Table,
		Predicates: []nebula.Predicate{
			{Column: row.Schema().PrimaryKey, Op: nebula.OpEq, Operand: pk},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Annotations) == 0 {
		t.Fatalf("propagation failed: %+v", out)
	}
	found := false
	for _, a := range out[0].Annotations {
		if a.ID == spec.Ann.ID {
			found = true
		}
	}
	if !found {
		t.Error("attached annotation did not propagate")
	}
}

func TestDeleteTupleIntegrity(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0, Upper: 1} // everything pending
	e, ds := engineFixture(t, opts)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	_, outcome, err := e.Process(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Pending) == 0 {
		t.Fatal("fixture produced no pending tasks")
	}
	victim := outcome.Pending[0].Tuple
	wasAttached := len(e.Store().TupleAnnotations(victim, -1))

	detached, cancelled, err := e.DeleteTuple(victim)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled == 0 {
		t.Error("pending task not cancelled")
	}
	if detached != wasAttached {
		t.Errorf("detached %d attachments, tuple had %d", detached, wasAttached)
	}
	// The tuple is gone everywhere.
	if _, ok := e.DB().Lookup(victim); ok {
		t.Error("tuple still in database")
	}
	if len(e.Store().TupleAnnotations(victim, -1)) != 0 {
		t.Error("attachments remain")
	}
	if e.Graph().Contains(victim) {
		t.Error("ACG node remains")
	}
	for _, task := range e.PendingTasks() {
		if task.Tuple == victim {
			t.Error("pending task remains")
		}
	}
	// Deleting again fails cleanly.
	if _, _, err := e.DeleteTuple(victim); err == nil {
		t.Error("double delete should fail")
	}
	if _, _, err := e.DeleteTuple(nebula.TupleID{Table: "Nope", Key: "s:x"}); err == nil {
		t.Error("unknown table should fail")
	}
	// The engine keeps working after the deletion.
	if _, err := e.Discover(spec.Ann.ID); err != nil {
		t.Fatalf("discovery after delete: %v", err)
	}
}

func TestPropagateJoinThroughEngine(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	// Find a protein and annotate its gene; the annotation must propagate
	// to the joined Protein⋈Gene row.
	pt := e.DB().MustTable("Protein")
	protein := pt.Rows()[0]
	geneID := protein.MustGet("GeneID")
	gene, ok := e.DB().MustTable("Gene").GetByPK(geneID)
	if !ok {
		t.Fatal("fixture gene missing")
	}
	if err := e.AddAnnotation(&nebula.Annotation{ID: "join-note", Body: "x"},
		[]nebula.TupleID{gene.ID}); err != nil {
		t.Fatal(err)
	}
	out, err := e.PropagateJoin(
		nebula.StructuredQuery{Table: "Protein", Predicates: []nebula.Predicate{
			{Column: "PID", Op: nebula.OpEq, Operand: protein.MustGet("PID")},
		}},
		nebula.StructuredQuery{Table: "Gene"},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("joined rows = %d", len(out))
	}
	found := false
	for _, a := range out[0].Annotations {
		if a.ID == "join-note" {
			found = true
		}
	}
	if !found {
		t.Errorf("gene annotation did not propagate to the joined row: %v", out[0].Annotations)
	}
	_ = ds
}

func TestDiscoverUnknownAnnotation(t *testing.T) {
	e, _ := engineFixture(t, nebula.DefaultOptions())
	if _, err := e.Discover("nope"); err == nil {
		t.Error("unknown annotation should fail")
	}
	if _, err := e.NaiveDiscover("nope"); err == nil {
		t.Error("unknown annotation should fail")
	}
	if _, _, err := e.Process("nope"); err == nil {
		t.Error("unknown annotation should fail")
	}
}
