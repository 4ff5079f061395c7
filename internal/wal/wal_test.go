package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nebula/internal/faultinject"
	"nebula/internal/vfs"
)

func sampleRecords() []*Record {
	return []*Record{
		{Op: OpAddAnnotation, Ann: "a1", Author: "alice", Body: "gene JW00014 regulates stress response", Kind: "comment",
			AttachTo: []TupleRef{{Table: "Gene", Key: "jw00014"}}},
		{Op: OpInsertRow, Table: "Gene", Values: []Cell{{Kind: 0, Str: "JW99999"}, {Kind: 1, Int: 1342}, {Kind: 2, Flt: 0.5}}},
		{Op: OpUpdateRow, Tuple: TupleRef{Table: "Gene", Key: "jw99999"}, Column: "Length", Value: Cell{Kind: 1, Int: 99}},
		{Op: OpSubmit, Ann: "a1", Focal: []TupleRef{{Table: "Gene", Key: "jw00014"}},
			Candidates: []CandidateRef{{Tuple: TupleRef{Table: "Protein", Key: "p00001"}, Confidence: 0.9, Evidence: []string{"q1", "q2"}}},
			Degraded:   true, FirstVID: 7},
		{Op: OpVerdict, Ann: "a1", Tuple: TupleRef{Table: "Protein", Key: "p00001"}, VID: 7, Accept: true},
		{Op: OpDeleteRow, Tuple: TupleRef{Table: "Gene", Key: "jw99999"}},
		{Op: OpDeleteTuple, Tuple: TupleRef{Table: "Gene", Key: "jw00014"}},
		{Op: OpSetBounds, Lower: 0.2, Upper: 0.85},
	}
}

// encodeRecordV1 frames r the way logs were written before WAL2 frames: a
// WAL1 frame holding r as its own gob stream.
func encodeRecordV1(t testing.TB, r *Record) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(r); err != nil {
		t.Fatal(err)
	}
	return frameWithGuard(payload.Bytes(), frameGuard1)
}

// frameWithGuard frames payload under the given guard word.
func frameWithGuard(payload []byte, guard uint32) []byte {
	length, sum := uint32(len(payload)), crc32.Checksum(payload, castagnoli)
	frame := binary.LittleEndian.AppendUint32(nil, length)
	frame = binary.LittleEndian.AppendUint32(frame, sum)
	frame = binary.LittleEndian.AppendUint32(frame, length^sum^guard)
	return append(frame, payload...)
}

// framesOfBothFormats returns rec as a WAL2 frame, as EncodeRecord writes
// it, and as a WAL1 frame, as logs written before hold it.
func framesOfBothFormats(t testing.TB, rec *Record) map[string][]byte {
	t.Helper()
	v2, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"wal1": encodeRecordV1(t, rec), "wal2": v2}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		frame, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := DecodeRecord(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("record %d (%v): round trip mismatch:\n got %+v\nwant %+v", i, rec.Op, got, rec)
		}
	}
}

func TestDecodeRecordCorruption(t *testing.T) {
	// Clean EOF on empty stream.
	if _, err := DecodeRecord(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: want io.EOF, got %v", err)
	}
	for format, frame := range framesOfBothFormats(t, sampleRecords()[0]) {
		// Every strict prefix of the frame is corrupt, never EOF, never a
		// record — a torn append must terminate replay, not be misread.
		for cut := 1; cut < len(frame); cut++ {
			if _, err := DecodeRecord(bytes.NewReader(frame[:cut])); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("%s prefix %d/%d: want ErrCorruptRecord, got %v", format, cut, len(frame), err)
			}
		}
		// Any single flipped bit is caught by the guard or the checksum.
		for _, pos := range []int{0, 5, 9, frameHeaderSize, len(frame) - 1} {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 0x40
			if _, err := DecodeRecord(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("%s flipped byte %d: want ErrCorruptRecord, got %v", format, pos, err)
			}
		}
	}
}

// TestWALFramesOfBothFormatsDecode: a record framed as WAL1 (gob) and as
// WAL2 decodes to the same value either way, and the WAL2 frame is the
// smaller — it carries no type descriptor.
func TestWALFramesOfBothFormatsDecode(t *testing.T) {
	for i, rec := range sampleRecords() {
		frames := framesOfBothFormats(t, rec)
		for format, frame := range frames {
			got, guard, err := decodeFrame(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("record %d %s: %v", i, format, err)
			}
			if want := map[string]uint32{"wal1": frameGuard1, "wal2": frameGuard2}[format]; guard != want {
				t.Errorf("record %d %s: decoded as guard %08x", i, format, guard)
			}
			if !reflect.DeepEqual(got, rec) {
				t.Errorf("record %d %s: got %+v, want %+v", i, format, got, rec)
			}
		}
		if len(frames["wal2"]) >= len(frames["wal1"]) {
			t.Errorf("record %d: WAL2 frame %d bytes, WAL1 frame %d", i, len(frames["wal2"]), len(frames["wal1"]))
		}
	}
}

// TestWALGuardSwapIsCorrupt: a valid frame whose guard word names the other
// format — the checksum still matches — is corrupt, never a record.
func TestWALGuardSwapIsCorrupt(t *testing.T) {
	for i, rec := range sampleRecords() {
		for format, frame := range framesOfBothFormats(t, rec) {
			mut := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(mut[8:], binary.LittleEndian.Uint32(mut[8:])^frameGuard1^frameGuard2)
			if got, err := DecodeRecord(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("record %d, %s frame under the other guard: got %+v, %v; want ErrCorruptRecord", i, format, got, err)
			}
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	var last LSN
	for _, rec := range want {
		last, err = l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*Record
	stats, err := Replay(dir, ReplayConfig{}, func(r *Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(want) || stats.CorruptTail || stats.ApplyErrors != 0 {
		t.Fatalf("stats = %+v, want %d clean records", stats, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("replayed records differ from appended records")
	}
}

func TestOpenAlwaysStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.ActiveSegment(); got != uint64(i) {
			t.Fatalf("boot %d: active segment %d", i, got)
		}
		if _, err := l.Append(&Record{Op: OpSetBounds, Lower: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := ListSegments(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %v", segs)
	}
	var lowers []float64
	if _, err := Replay(dir, ReplayConfig{}, func(r *Record) error {
		lowers = append(lowers, r.Lower)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lowers, []float64{1, 2, 3}) {
		t.Errorf("cross-segment replay order = %v", lowers)
	}
}

func TestRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 2}); err != nil {
		t.Fatal(err)
	}
	boundary := l.ActiveSegment()
	if boundary != 2 {
		t.Fatalf("active segment after rotate = %d", boundary)
	}

	// Replay honoring the boundary sees only the post-rotation suffix.
	var lowers []float64
	stats, err := Replay(dir, ReplayConfig{FromSegment: boundary}, func(r *Record) error {
		lowers = append(lowers, r.Lower)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedSegments != 1 || !reflect.DeepEqual(lowers, []float64{2}) {
		t.Errorf("boundary replay: stats=%+v lowers=%v", stats, lowers)
	}

	if err := l.PruneBefore(boundary); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segs, []uint64{2}) {
		t.Errorf("segments after prune = %v", segs)
	}
	if st := l.Stats(); st.Rotations != 1 {
		t.Errorf("rotations = %d", st.Rotations)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way into the final record.
	cut := len(data) - 3
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	stats, err := Replay(dir, ReplayConfig{}, func(*Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs)-1 || !stats.CorruptTail || stats.DiscardedBytes == 0 {
		t.Errorf("torn tail: applied=%d stats=%+v", n, stats)
	}
}

func TestInteriorCorruptionAborts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt segment 1; segment 2 still has records, so this is not a
	// crash tail — replay must refuse rather than skip history.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, ReplayConfig{}, func(*Record) error { return nil })
	if !errors.Is(err, ErrCorruptInterior) {
		t.Errorf("want ErrCorruptInterior, got %v", err)
	}
}

func TestGroupCommitAbsorption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn1, err := l.Append(&Record{Op: OpSetBounds, Lower: 1})
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(&Record{Op: OpSetBounds, Lower: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn2); err != nil {
		t.Fatal(err)
	}
	// lsn1 < lsn2 is already durable: this Sync must be absorbed, not
	// issue another fsync.
	if err := l.Sync(lsn1); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Syncs != 1 || st.SyncAbsorbed != 1 || st.Durable != uint64(lsn2) {
		t.Errorf("stats = %+v", st)
	}
	if err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncAbsorbed != 2 {
		t.Errorf("SyncAll of durable prefix not absorbed: %+v", st)
	}
}

func TestSyncAlwaysMode(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(&Record{Op: OpSetBounds, Lower: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Durable < uint64(lsn) || st.Syncs == 0 {
		t.Errorf("SyncAlways did not make the append durable: %+v", st)
	}
}

func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fsys := faultinject.WrapFS(nil, faultinject.FSConfig{FailSyncAt: 1})
	l, err := Open(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(&Record{Op: OpSetBounds, Lower: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); !errors.Is(err, ErrFailed) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted fsync: got %v", err)
	}
	// The log is now fail-stop: appends and syncs refuse.
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 2}); !errors.Is(err, ErrFailed) {
		t.Errorf("append after poison: got %v", err)
	}
	if err := l.SyncAll(); !errors.Is(err, ErrFailed) {
		t.Errorf("sync after poison: got %v", err)
	}
	l.Close()
}

func TestWriteFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	// First write is the appended frame (Open writes nothing).
	fsys := faultinject.WrapFS(nil, faultinject.FSConfig{ShortWriteAt: 1})
	l, err := Open(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 1}); !errors.Is(err, ErrFailed) {
		t.Fatalf("short write: got %v", err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 2}); !errors.Is(err, ErrFailed) {
		t.Errorf("append after torn write: got %v", err)
	}
	l.Close()

	// The half-written frame on disk is a torn tail: discarded at replay.
	stats, err := Replay(dir, ReplayConfig{}, func(*Record) error {
		return fmt.Errorf("nothing durable should apply")
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || !stats.CorruptTail {
		t.Errorf("stats = %+v", stats)
	}
}

func TestReplayApplyErrorsCountedNotFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(&Record{Op: OpSetBounds, Lower: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	stats, err := Replay(dir, ReplayConfig{}, func(r *Record) error {
		n++
		if int(r.Lower)%2 == 1 {
			return fmt.Errorf("deterministic apply failure")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || stats.ApplyErrors != 2 {
		t.Errorf("applied=%d stats=%+v", n, stats)
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Op: OpSetBounds, Lower: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Records != 1 || infos[1].Records != 2 {
		t.Errorf("infos = %+v", infos)
	}
	for _, info := range infos {
		if info.CorruptTail || info.Bytes == 0 {
			t.Errorf("segment %d: %+v", info.Segment, info)
		}
	}
}

func TestConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, perWriter = 8, 25
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(&Record{Op: OpSetBounds, Lower: float64(w), Upper: float64(i)})
				if err != nil {
					errc <- err
					return
				}
				if err := l.Sync(lsn); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appended != writers*perWriter {
		t.Fatalf("appended = %d", st.Appended)
	}
	if st.Durable != st.Appended {
		t.Fatalf("durable = %d of %d", st.Durable, st.Appended)
	}
	n := 0
	if _, err := Replay(dir, ReplayConfig{}, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Errorf("replayed %d records", n)
	}
}

// TestWALInspectBoundsReplaySearches: Inspect names each segment's format
// and bounds its replay searches. A WAL1 segment of Stage-3 records
// without hop distances counts as searching; a WAL1 segment whose records
// carry them counts nothing; a WAL2 segment counts nothing because of its
// format, distances or not; a mixed segment counts its WAL1 frames alone.
// The distances survive the round trip.
func TestWALInspectBoundsReplaySearches(t *testing.T) {
	dir := t.TempDir()
	submit := &Record{Op: OpSubmit, Ann: "a1", FirstVID: 7,
		Candidates: []CandidateRef{{Tuple: TupleRef{Table: "Protein", Key: "p00001"}, Confidence: 0.9}}}
	verdict := &Record{Op: OpVerdict, Ann: "a1", Tuple: TupleRef{Table: "Protein", Key: "p00002"}, VID: 8, Accept: true}
	reject := &Record{Op: OpVerdict, Ann: "a1", VID: 9}
	withHops := func(rec *Record, hops byte) *Record {
		c := *rec
		c.Hops = []byte{hops}
		return &c
	}
	legacy, measured := []*Record{submit, verdict, reject}, []*Record{withHops(submit, 2), withHops(verdict, 0), reject}
	v1 := func(recs ...*Record) (frames []byte) {
		for _, rec := range recs {
			frames = append(frames, encodeRecordV1(t, rec)...)
		}
		return frames
	}
	v2 := func(recs ...*Record) (frames []byte) {
		for _, rec := range recs {
			var err error
			if frames, err = EncodeRecord(frames, rec); err != nil {
				t.Fatal(err)
			}
		}
		return frames
	}
	segments := [][]byte{
		v1(legacy...),
		v1(measured...),
		v2(legacy...),
		append(v1(legacy...), v2(measured...)...),
	}
	for i, data := range segments {
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, info := range infos {
		got = append(got, fmt.Sprintf("%s/%d/%d", info.Format, info.Records, info.Searches))
	}
	if want := []string{"wal1/3/2", "wal1/3/0", "wal2/3/0", "mixed/6/2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("format/records/searches by segment = %v, want %v", got, want)
	}
	var hops [][]byte
	if _, err := Replay(dir, ReplayConfig{FromSegment: 2}, func(rec *Record) error {
		hops = append(hops, rec.Hops)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{{2}, {0}, nil, nil, nil, nil, nil, nil, nil, {2}, {0}, nil}; !reflect.DeepEqual(hops, want) {
		t.Fatalf("replayed hop distances %v, want %v", hops, want)
	}
}

// BenchmarkRecordCodec measures framing and decoding sampleRecords, one
// record per op, in each format; WAL1 frames are only ever decoded.
func BenchmarkRecordCodec(b *testing.B) {
	recs := sampleRecords()
	b.Run("encode/wal2", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = EncodeRecord(buf[:0], recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, format := range []string{"wal1", "wal2"} {
		var frames [][]byte
		size := 0
		for _, rec := range recs {
			frames = append(frames, framesOfBothFormats(b, rec)[format])
			size += len(frames[len(frames)-1])
		}
		b.Run("decode/"+format, func(b *testing.B) {
			b.ReportMetric(float64(size)/float64(len(frames)), "B/record")
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRecord(bytes.NewReader(frames[i%len(frames)])); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
