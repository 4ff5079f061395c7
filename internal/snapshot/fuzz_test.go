package snapshot

import (
	"bytes"
	"fmt"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// fuzzRNG is a tiny deterministic generator (splitmix64) so fuzz inputs
// expand into varied-but-reproducible states without math/rand.
type fuzzRNG uint64

func (r *fuzzRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *fuzzRNG) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// fuzzState builds a full engine state from the fuzzed primitives: a
// two-table database, an annotation store with true and predicted edges,
// an ACG mirroring the attachments, and a hop-distance profile.
func fuzzState(t *testing.T, rows, anns, batchSize int, mu float64, seed uint64) State {
	t.Helper()
	db := relational.NewDatabase()
	if _, err := db.CreateTable(&relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString, Indexed: true},
			{Name: "Family", Type: relational.TypeString},
			{Name: "Length", Type: relational.TypeInt},
			{Name: "Score", Type: relational.TypeFloat},
		},
		PrimaryKey: "GID",
	}); err != nil {
		t.Fatal(err)
	}
	rng := fuzzRNG(seed)
	gt := db.MustTable("Gene")
	tuples := make([]relational.TupleID, 0, rows)
	for i := 0; i < rows; i++ {
		row, err := gt.Insert([]relational.Value{
			relational.String(fmt.Sprintf("JW%05d", i)),
			relational.String(fmt.Sprintf("F%d", rng.intn(7))),
			relational.Int(int64(rng.intn(2000))),
			relational.Float(float64(rng.intn(1000)) / 1000),
		})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, row.ID)
	}

	store := annotation.NewStore()
	graph := acg.New(batchSize, mu)
	for i := 0; i < anns; i++ {
		id := annotation.ID(fmt.Sprintf("ann-%d", i))
		if err := store.Add(&annotation.Annotation{
			ID: id, Author: fmt.Sprintf("curator%d", rng.intn(3)),
			Body: fmt.Sprintf("body %d: related to JW%05d", i, rng.intn(rows+1)),
			Kind: []string{"comment", "article", "flag"}[rng.intn(3)],
		}); err != nil {
			t.Fatal(err)
		}
		var attached []relational.TupleID
		for e, n := 0, rng.intn(4); e < n && len(tuples) > 0; e++ {
			att := annotation.Attachment{Annotation: id, Tuple: tuples[rng.intn(len(tuples))]}
			if rng.intn(2) == 0 {
				att.Type = annotation.TrueAttachment
			} else {
				att.Type = annotation.PredictedAttachment
				att.Confidence = float64(rng.intn(999)) / 1000
				if rng.intn(3) == 0 {
					att.Column = "Family"
				}
			}
			if _, err := store.Attach(att); err != nil {
				t.Fatal(err)
			}
			attached = append(attached, att.Tuple)
		}
		graph.AddAnnotation(id, attached)
	}

	profile := acg.NewProfile()
	for i, n := 0, rng.intn(20); i < n; i++ {
		profile.Record(rng.intn(6), rng.intn(5) != 0)
	}
	return State{DB: db, Store: store, Graph: graph, Profile: profile, ManualFocal: graph.Dump()}
}

// FuzzSnapshotRoundTrip drives the snapshot codec from fuzzed primitives:
// the generated state must survive Capture → Save → Load → Restore →
// Capture unchanged, the bulk-load Restore must build what the reference
// restore builds, and Load must never panic on the arbitrary raw stream
// (including single-byte corruptions of a valid stream). Extend
// the corpus with `go test -fuzz=FuzzSnapshotRoundTrip ./internal/snapshot`.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(0, 0, 1, 0.1, uint64(0), []byte(nil))
	f.Add(5, 3, 2, 0.25, uint64(42), []byte("not a snapshot"))
	f.Add(40, 12, 10, 0.9, uint64(7), []byte{'N', 'E', 'B', 'S', 'N', 'A', 'P', 0, 1, 2, 3})
	f.Add(1, 30, 1, 0.0, uint64(123456789), []byte{0xff, 0xfe, 0x00})
	f.Add(17, 1, 100, 0.5, uint64(1<<60), []byte("NEBSNAP"))
	// A version 2 header announcing one empty section, with the frame cut.
	f.Add(6, 4, 3, 0.25, uint64(99), []byte("NEBSNAP\x00\x02\x00\x00\x00\x0c\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, rows, anns, batchSize int, mu float64, seed uint64, raw []byte) {
		// Arbitrary bytes must never panic the reader, whatever they hold,
		// through either payload path.
		_, _ = Load(bytes.NewReader(raw))
		_, _ = Load(opaque{bytes.NewReader(raw)})

		// Clamp the fuzzed primitives to constructible states. mu outside
		// [0,1) and non-finite values are normalized, not rejected: the
		// stability tracker stores mu verbatim and NaN breaks DeepEqual.
		rows, anns, batchSize = rows&63, anns&31, batchSize&127+1
		if !(mu >= 0 && mu < 1) {
			mu = 0.5
		}
		st := fuzzState(t, rows, anns, batchSize, mu, seed)

		// Equality is checked on the canonical encoded form: gob drops empty
		// slices, so a decoded snapshot legitimately holds nil where the
		// captured one holds []T{} — the bytes are the identity that matters.
		encode := func(label string, s *Snapshot) []byte {
			var buf bytes.Buffer
			if err := Save(&buf, s); err != nil {
				t.Fatalf("Save(%s): %v", label, err)
			}
			return buf.Bytes()
		}
		snap, err := Capture(st)
		if err != nil {
			t.Fatalf("Capture: %v", err)
		}
		wire := encode("captured", snap)
		loaded, err := Load(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !bytes.Equal(encode("loaded", loaded), wire) {
			t.Fatalf("decoded snapshot re-encodes differently\nsaved:  %+v\nloaded: %+v", snap, loaded)
		}

		restored, err := loaded.Restore(1 + int(seed%3))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		reference, err := loaded.RestoreReference()
		if err != nil {
			t.Fatalf("RestoreReference: %v", err)
		}
		requireSameState(t, restored, reference)
		again, err := Capture(restored)
		if err != nil {
			t.Fatalf("re-Capture: %v", err)
		}
		if !bytes.Equal(encode("recaptured", again), wire) {
			t.Fatalf("round trip not a fixed point\nfirst:  %+v\nsecond: %+v", snap, again)
		}

		// A single flipped byte must surface as an error (ErrCorrupt for
		// payload damage, a decode error otherwise) — never a panic, and
		// never a silently different snapshot.
		if len(wire) > 0 {
			rng := fuzzRNG(seed ^ 0xdecafbad)
			damaged := bytes.Clone(wire)
			pos := rng.intn(len(damaged))
			damaged[pos] ^= byte(1 << rng.intn(8))
			if got, err := Load(bytes.NewReader(damaged)); err == nil && !bytes.Equal(encode("damaged", got), wire) {
				t.Fatalf("bit flip at %d silently altered the snapshot", pos)
			}
		}
	})
}
