package snapshot

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// requireSameState compares two restored states structure by structure.
// DeepEqual reaches every unexported field: row lists, primary-key maps,
// hash buckets and posting lists in order, the store's per-annotation and
// per-tuple edge lists in order, the graph's tuple and neighbor lists in
// order, the stability tracker, the hop profile.
func requireSameState(t *testing.T, got, want State) {
	t.Helper()
	if !reflect.DeepEqual(got.DB.TableNames(), want.DB.TableNames()) {
		t.Fatalf("tables %v, want %v", got.DB.TableNames(), want.DB.TableNames())
	}
	for _, name := range want.DB.TableNames() {
		if !reflect.DeepEqual(got.DB.MustTable(name), want.DB.MustTable(name)) {
			t.Fatalf("table %s differs (rows, primary-key map, hash buckets, posting lists or epoch)", name)
		}
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"database", got.DB, want.DB},
		{"annotation store", got.Store, want.Store},
		{"ACG", got.Graph, want.Graph},
		{"hop profile", got.Profile, want.Profile},
		{"manual-focal lists", got.ManualFocal, want.ManualFocal},
		{"pending tasks", got.Tasks, want.Tasks},
		{"ingest jobs", got.IngestJobs, want.IngestJobs},
		{"counters and bounds", []any{got.NextVID, got.IngestNextSeq, got.HasBounds, got.BoundsLower, got.BoundsUpper},
			[]any{want.NextVID, want.IngestNextSeq, want.HasBounds, want.BoundsLower, want.BoundsUpper}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s differ", c.name)
		}
	}
}

// diffState is a state with a history: text that is not ASCII and text that
// is not UTF-8 in indexed and full-text columns, rows updated and deleted
// after they were indexed, edges detached, promoted and re-attached, a
// tuple removed from the graph, attachments added after their annotation.
func diffState(t *testing.T) State {
	t.Helper()
	db := relational.NewDatabase()
	gene, err := db.CreateTable(&relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString, Indexed: true},
			{Name: "Family", Type: relational.TypeString, Indexed: true},
			{Name: "Length", Type: relational.TypeInt, Indexed: true},
			{Name: "Score", Type: relational.TypeFloat},
		},
		PrimaryKey: "GID",
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := db.CreateTable(&relational.Schema{
		Name: "Publication",
		Columns: []relational.Column{
			{Name: "PubID", Type: relational.TypeInt},
			{Name: "Title", Type: relational.TypeString, FullText: true},
			{Name: "Abstract", Type: relational.TypeString, FullText: true},
			{Name: "GeneID", Type: relational.TypeString, Indexed: true},
		},
		PrimaryKey:  "PubID",
		ForeignKeys: []relational.ForeignKey{{Column: "GeneID", RefTable: "Gene", RefColumn: "GID"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"The gene the GENE binds G-Actin and P12345.2",
		"gène número İstanbul Kelvin STRASSE ßſ",
		"ab\xffcd JW0014 \xc3 mid\x80dle",
		"",
		"kinase kinase binding kinase snake_case_name trailing dash-",
	}
	var tuples []relational.TupleID
	for i := 0; i < 40; i++ {
		row, err := gene.Insert([]relational.Value{
			relational.String(fmt.Sprintf("JW%04d", i)),
			relational.String([]string{"F1", "f1", "İ2", "K3", "bad\xff"}[i%5]),
			relational.Int(int64(i % 7)),
			relational.Float(float64(i) / 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, row.ID)
	}
	for i := 0; i < 60; i++ {
		row, err := pub.Insert([]relational.Value{
			relational.Int(int64(1000 + i)),
			relational.String(texts[i%len(texts)]),
			relational.String(texts[(i*3+1)%len(texts)] + fmt.Sprintf(" about JW%04d", i%40)),
			relational.String(fmt.Sprintf("jw%04d", i%40)),
		})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, row.ID)
	}
	for i := 0; i < 60; i += 9 {
		if err := pub.UpdateByKey(relational.Int(int64(1000+i)).Key(), "Abstract", relational.String("rewritten İ abstract the THE "+texts[i%len(texts)])); err != nil {
			t.Fatal(err)
		}
	}
	if err := gene.UpdateByKey(relational.String("JW0003").Key(), "Family", relational.String("F1")); err != nil {
		t.Fatal(err)
	}
	deleted := map[relational.TupleID]bool{}
	for _, pk := range []int64{1004, 1031, 1059} {
		id := relational.TupleID{Table: "Publication", Key: relational.Int(pk).Key()}
		if !pub.DeleteByKey(relational.Int(pk).Key()) {
			t.Fatalf("no publication %d", pk)
		}
		deleted[id] = true
	}

	store := annotation.NewStore()
	graph := acg.New(5, 0.4)
	for i := 0; i < 30; i++ {
		id := annotation.ID(fmt.Sprintf("ann-%02d", (i*7)%30)) // not in sorted order
		if err := store.Add(&annotation.Annotation{ID: id, Author: "c", Body: texts[i%len(texts)], Kind: "comment"}); err != nil {
			t.Fatal(err)
		}
		var attached []relational.TupleID
		for k := 0; k < i%5; k++ {
			tuple := tuples[(i*11+k*17)%len(tuples)]
			if deleted[tuple] {
				continue
			}
			att := annotation.Attachment{Annotation: id, Tuple: tuple, Type: annotation.TrueAttachment}
			if k%2 == 1 {
				att.Type, att.Confidence, att.Column = annotation.PredictedAttachment, float64(k)/7, "Family"
			}
			if _, err := store.Attach(att); err != nil {
				t.Fatal(err)
			}
			attached = append(attached, tuple)
		}
		graph.AddAnnotation(id, attached)
	}
	// Verdicts and retractions, as the engine applies them.
	promoted, retracted := 0, 0
	for _, id := range store.IDs() {
		for _, att := range store.Attachments(id, annotation.PredictedAttachment) {
			switch {
			case promoted <= retracted:
				if err := store.Promote(id, att.Tuple); err != nil {
					t.Fatal(err)
				}
				graph.AddAttachment(id, att.Tuple)
				promoted++
			default:
				store.Detach(id, att.Tuple)
				retracted++
			}
		}
	}
	gone := tuples[5]
	store.DetachTuple(gone)
	graph.RemoveTuple(gone)

	profile := acg.NewProfile()
	for i := 0; i < 12; i++ {
		profile.Record(i%4, i%5 != 0)
	}
	return State{
		DB: db, Store: store, Graph: graph, Profile: profile,
		HasBounds: true, BoundsLower: 0.25, BoundsUpper: 0.75,
		Tasks: []TaskDump{
			{VID: 3, Annotation: "ann-01", Table: "Gene", Key: "s:jw0001", Confidence: 0.5, Evidence: []string{"q1", "q2"}},
			{VID: 7, Annotation: "ann-02", Table: "Publication", Key: "i:1001", Confidence: 0.6},
		},
		NextVID:       9,
		IngestJobs:    []IngestJobDump{{Annotation: "ann-03", Kind: 1, Priority: 2, Seq: 4}, {Annotation: "ann-04", Seq: 6}},
		IngestNextSeq: 7,
		ManualFocal:   graph.Dump()[:10],
	}
}

// TestRestoreMatchesReference is the differential test of the bulk-load
// restore: whatever the worker count, it builds what the one-insert-at-a-
// time reference builds, structure by structure and in order. Run it under
// -race: the loaders' tasks share the snapshot and must share nothing else.
func TestRestoreMatchesReference(t *testing.T) {
	snap, err := Capture(diffState(t))
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := Save(&wire, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := loaded.RestoreReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := loaded.Restore(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameState(t, got, want)

		st, _, stats, err := RestoreFrom(bytes.NewReader(wire.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameState(t, st, want)
		if stats.Workers != workers || stats.Rows != want.DB.TotalRows() || stats.Annotations != want.Store.Len() ||
			stats.Attachments != want.Store.EdgeCount() || stats.Bytes != int64(wire.Len()) || stats.Sections != 5 {
			t.Errorf("workers=%d: stats %+v", workers, stats)
		}
	}

	// The round trip is a fixed point: what was restored captures to the
	// bytes it was restored from.
	again, err := Capture(want)
	if err != nil {
		t.Fatal(err)
	}
	var rewire bytes.Buffer
	if err := Save(&rewire, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewire.Bytes(), wire.Bytes()) {
		t.Error("capturing the restored state does not reproduce the stream")
	}
}

// TestNumericColumnsStoreNoText pins what typed columns removed: a numeric
// cell is stored as its number and nothing else, so a table of numbers has
// no string bytes in its section, however its values render.
func TestNumericColumnsStoreNoText(t *testing.T) {
	db := relational.NewDatabase()
	table, err := db.CreateTable(&relational.Schema{
		Name:       "Reading",
		Columns:    []relational.Column{{Name: "At", Type: relational.TypeInt}, {Name: "Value", Type: relational.TypeFloat}},
		PrimaryKey: "At",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if _, err := table.Insert([]relational.Value{relational.Int(1234567890123 + i), relational.Float(0.123456789 + float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := Capture(State{DB: db, Store: annotation.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	for j, col := range snap.Tables[0].Cells {
		if col.Strings.Blob != "" || len(col.Strings.Lens) != 0 {
			t.Errorf("column %d stores %d string bytes in %d strings", j, len(col.Strings.Blob), len(col.Strings.Lens))
		}
	}
	var wire bytes.Buffer
	if err := Save(&wire, snap); err != nil {
		t.Fatal(err)
	}
	for _, rendering := range []string{"1234567890123", "0.123456789", "1.123456789"} {
		if bytes.Contains(wire.Bytes(), []byte(rendering)) {
			t.Errorf("stream holds the decimal rendering %q", rendering)
		}
	}
	restored, err := snap.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.DB.MustTable("Reading"), table) {
		t.Error("numeric table did not round-trip")
	}
}
