package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
	"nebula/internal/workload"
)

func capture(t *testing.T) (State, *Snapshot) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	profile := acg.NewProfile()
	profile.Record(1, true)
	profile.Record(2, true)
	profile.Record(0, false)
	st := State{DB: ds.DB, Store: ds.Store, Graph: ds.Graph, Profile: profile}
	snap, err := Capture(st)
	if err != nil {
		t.Fatal(err)
	}
	return st, snap
}

func TestRoundTripThroughSaveAndLoad(t *testing.T) {
	orig, snap := capture(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.Restore(2)
	if err != nil {
		t.Fatal(err)
	}

	// Data round-trips: same tables, cardinalities, and cell values.
	if got, want := restored.DB.TotalRows(), orig.DB.TotalRows(); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, name := range orig.DB.TableNames() {
		ot := orig.DB.MustTable(name)
		rt, ok := restored.DB.Table(name)
		if !ok || rt.Len() != ot.Len() {
			t.Fatalf("table %s mismatch", name)
		}
		for i, row := range ot.Rows() {
			rrow := rt.Rows()[i]
			for j, v := range row.Values {
				if !v.Equal(rrow.Values[j]) {
					t.Fatalf("%s row %d col %d: %v != %v", name, i, j, v, rrow.Values[j])
				}
			}
		}
	}

	// Annotations and attachments round-trip.
	if restored.Store.Len() != orig.Store.Len() {
		t.Fatalf("annotations = %d, want %d", restored.Store.Len(), orig.Store.Len())
	}
	if restored.Store.EdgeCount() != orig.Store.EdgeCount() {
		t.Fatalf("edges = %d, want %d", restored.Store.EdgeCount(), orig.Store.EdgeCount())
	}
	for _, id := range orig.Store.IDs() {
		oa, _ := orig.Store.Get(id)
		ra, ok := restored.Store.Get(id)
		if !ok || ra.Body != oa.Body || ra.Kind != oa.Kind {
			t.Fatalf("annotation %s mismatch", id)
		}
	}

	// ACG round-trips: same node/edge counts and weights.
	if restored.Graph.Nodes() != orig.Graph.Nodes() || restored.Graph.Edges() != orig.Graph.Edges() {
		t.Fatalf("graph %d/%d, want %d/%d", restored.Graph.Nodes(), restored.Graph.Edges(),
			orig.Graph.Nodes(), orig.Graph.Edges())
	}
	for id, tuples := range orig.Graph.AttachmentList() {
		for _, a := range tuples {
			for _, b := range tuples {
				if a != b && restored.Graph.Weight(a, b) != orig.Graph.Weight(a, b) {
					t.Fatalf("weight(%v,%v) mismatch", a, b)
				}
			}
		}
		_ = id
	}
	// Stability counters preserved.
	ob, om, oa2, oat, oe, oc, os := orig.Graph.StabilityState()
	rb, rm, ra2, rat, re, rc, rs := restored.Graph.StabilityState()
	if ob != rb || om != rm || oa2 != ra2 || oat != rat || oe != re || oc != rc || os != rs {
		t.Fatal("stability state mismatch")
	}

	// Profile round-trips.
	if restored.Profile.Total() != orig.Profile.Total() ||
		restored.Profile.Unreachable() != orig.Profile.Unreachable() ||
		restored.Profile.Bucket(1) != orig.Profile.Bucket(1) {
		t.Fatal("profile mismatch")
	}
}

func TestCaptureValidation(t *testing.T) {
	if _, err := Capture(State{}); err == nil {
		t.Error("nil state should fail")
	}
}

func TestVersionChecks(t *testing.T) {
	data := encoded(t)
	for _, version := range []uint32{0, 3, 99} {
		mut := bytes.Clone(data)
		binary.LittleEndian.PutUint32(mut[len(magic):], version)
		if _, err := Load(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d: error %v", version, err)
		}
	}
	// A version 2 payload behind a version 1 header fails version 1's
	// whole-payload checksum, which the header does not hold.
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint32(mut[len(magic):], 1)
	if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version 2 payload under a version 1 header: error %v is not ErrCorrupt", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage should fail")
	}
}

func TestRestoredStateIsLive(t *testing.T) {
	// A restored state must accept new work: add an annotation, attach it,
	// grow the graph.
	_, snap := capture(t)
	st, err := snap.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	gt := st.DB.MustTable("Gene")
	row := gt.Rows()[0]
	if err := st.Store.Add(&annotation.Annotation{ID: "post-restore", Body: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Store.Attach(annotation.Attachment{
		Annotation: "post-restore", Tuple: row.ID, Type: annotation.TrueAttachment,
	}); err != nil {
		t.Fatal(err)
	}
	st.Graph.AddAnnotation("post-restore", []relational.TupleID{row.ID})
	if !st.Graph.Contains(row.ID) {
		t.Error("restored graph not live")
	}
	// Indexes were rebuilt: lookups work.
	pk := row.MustGet("GID")
	if _, ok := gt.GetByPK(pk); !ok {
		t.Error("restored index lookup failed")
	}
}
