package nebula_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nebula"
	"nebula/internal/workload"
)

func TestCheckIntegrityHealthyEngine(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	e, ds := engineFixture(t, opts)
	// Exercise the full lifecycle: process, resolve, delete.
	for _, spec := range ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6}) {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Process(spec.Ann.ID); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.ResolveWithOracle(spec.Ann.ID, nebula.IdealOracle(ds.Ideal)); err != nil {
			t.Fatal(err)
		}
	}
	report := e.CheckIntegrity()
	if !report.OK() {
		t.Fatalf("healthy engine reported problems: %v", report.Problems)
	}
	if report.Attachments == 0 || report.GraphNodes == 0 {
		t.Errorf("report counted nothing: %+v", report)
	}
	// Deletion preserves integrity.
	gt := e.DB().MustTable("Gene")
	victim := gt.Rows()[0].ID
	if _, _, err := e.DeleteTuple(victim); err != nil {
		t.Fatal(err)
	}
	if report := e.CheckIntegrity(); !report.OK() {
		t.Fatalf("post-delete problems: %v", report.Problems)
	}
}

func TestCheckIntegrityDetectsRawMutations(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 1, Max: 3})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	// Bypass the engine: delete the focal tuple straight from the table.
	focal := spec.Focal(1)[0]
	tbl := e.DB().MustTable(focal.Table)
	if !tbl.DeleteByKey(focal.Key) {
		t.Fatal("raw delete failed")
	}
	report := e.CheckIntegrity()
	if report.OK() {
		t.Fatal("dangling attachment not detected")
	}
	found := false
	for _, p := range report.Problems {
		if strings.Contains(p, "tuple not in database") || strings.Contains(p, "not in database") {
			found = true
		}
	}
	if !found {
		t.Errorf("problems = %v", report.Problems)
	}
}

// TestCheckIntegrityFlagsGraphAttachmentWithoutStoreEdge wires an
// (annotation, tuple) pair into the ACG alone: the graph's edges then join
// tuples the store never attached, which the audit must report.
func TestCheckIntegrityFlagsGraphAttachmentWithoutStoreEdge(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 1, Max: 3})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	if report := e.CheckIntegrity(); !report.OK() {
		t.Fatalf("problems before the raw attachment: %v", report.Problems)
	}
	var stray nebula.TupleID
	for _, row := range e.DB().MustTable("Gene").Rows() {
		if _, attached := e.Store().Edge(spec.Ann.ID, row.ID); !attached {
			stray = row.ID
			break
		}
	}
	e.Graph().AddAttachment(spec.Ann.ID, stray)

	report := e.CheckIntegrity()
	want := fmt.Sprintf("ACG attachment %s -> %s is not a true attachment in the store", spec.Ann.ID, stray)
	if !slices.Contains(report.Problems, want) {
		t.Fatalf("problems = %v, want %q among them", report.Problems, want)
	}
}

func TestCheckIntegrityFlagsOutOfBandPendingTasks(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0, Upper: 1} // everything pending
	e, ds := engineFixture(t, opts)
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Process(spec.Ann.ID); err != nil {
		t.Fatal(err)
	}
	if len(e.PendingTasks()) == 0 {
		t.Fatal("no pending tasks")
	}
	// Retune the bounds so the queued tasks fall outside the new band.
	if err := e.SetBounds(nebula.Bounds{Lower: 0.99, Upper: 1.0}); err != nil {
		t.Fatal(err)
	}
	report := e.CheckIntegrity()
	if report.OK() {
		t.Fatal("out-of-band pending tasks not flagged")
	}
}
