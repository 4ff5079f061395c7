package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzWALRecord drives DecodeRecord with arbitrary byte streams — the
// exact situation recovery faces when a crash tears the log tail into
// garbage. Properties: never panic, never allocate unboundedly (the
// maxRecordSize guard), classify every stream as clean EOF / record /
// ErrCorruptRecord, and round-trip any successfully decoded record, of
// either frame format, through EncodeRecord.
//
// Beyond the f.Add seeds below, testdata/fuzz/FuzzWALRecord holds a
// checked-in corpus of regression inputs (seed-* are WAL1 frames, read by
// the gob shim; wal2-* are WAL2 frames); `make check` runs the corpus
// (and seeds) without fuzzing, `go test -fuzz=FuzzWALRecord ./internal/wal`
// explores from them.
func FuzzWALRecord(f *testing.F) {
	for _, format := range []string{"wal2", "wal1"} {
		for _, rec := range sampleRecords() {
			frame := framesOfBothFormats(f, rec)[format]
			f.Add(frame)                     // valid frame
			f.Add(frame[:len(frame)-1])      // torn payload
			f.Add(frame[:frameHeaderSize-2]) // torn header
			f.Add(append(frame, frame...))   // two frames back to back
			f.Add(append(frame, 0x00))       // trailing garbage byte
			mut := append([]byte(nil), frame...)
			mut[frameHeaderSize] ^= 0xFF
			f.Add(mut) // payload bit rot
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0}) // huge declared length

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			rec, err := DecodeRecord(r)
			if errors.Is(err, io.EOF) {
				if r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", r.Len())
				}
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorruptRecord) {
					t.Fatalf("error outside the corruption taxonomy: %v", err)
				}
				return // corrupt tail ends the stream, like replay does
			}
			// A decoded record must re-encode and decode to the same value
			// (replay state must not depend on which byte stream produced
			// the record).
			frame, err := EncodeRecord(nil, rec)
			if err != nil {
				t.Fatalf("re-encode of decoded record: %v", err)
			}
			back, err := DecodeRecord(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("decode of re-encoded record: %v", err)
			}
			if !reflect.DeepEqual(rec, back) {
				t.Fatalf("round trip mismatch: %+v vs %+v", rec, back)
			}
		}
	})
}

// FuzzWALRecordCodec builds a Record from the fuzz bytes — any Op, any
// subset of fields, any values — and requires the WAL2 codec to give it
// back: decode(encode(r)) equals r after the normalisation gob applies
// too (an empty slice decodes as nil), and encoding the decoded record
// again gives the same bytes, so every float comes back bit for bit.
func FuzzWALRecordCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, rec := range sampleRecords() {
		frame, err := EncodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameHeaderSize:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := recordGen{data: data}
		rec := g.record()
		frame, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecord(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("decode of %#v: %v", rec, err)
		}
		// %#v spells NaN and -0 out, where reflect.DeepEqual finds NaN
		// unequal to itself.
		if want := fmt.Sprintf("%#v", normalized(rec)); fmt.Sprintf("%#v", got) != want {
			t.Fatalf("round trip:\n got %#v\nwant %s", got, want)
		}
		again, err := EncodeRecord(nil, got)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("re-encoding the decoded record changed the frame (%v)", err)
		}
	})
}

// recordGen draws a Record's fields from fuzz bytes; once they run out
// every draw is zero.
type recordGen struct{ data []byte }

func (g *recordGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// u64 draws 0 to 8 bytes, so small values are as likely as large ones.
func (g *recordGen) u64() uint64 {
	var v uint64
	for n := g.byte() % 9; n > 0; n-- {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

func (g *recordGen) str() string {
	n := int(g.byte() % 16)
	if n > len(g.data) {
		n = len(g.data)
	}
	s := string(g.data[:n])
	g.data = g.data[n:]
	return s
}

func (g *recordGen) float() float64 { return math.Float64frombits(g.u64()) }

func (g *recordGen) tuple() TupleRef { return TupleRef{Table: g.str(), Key: g.str()} }

func (g *recordGen) cell() Cell {
	return Cell{Kind: int(int64(g.u64())), Int: int64(g.u64()), Flt: g.float(), Str: g.str()}
}

func genList[T any](g *recordGen, elem func() T) []T {
	n := int(g.byte() % 4)
	if n == 0 {
		return []T{} // empty, not nil: the codec must normalise it
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

// record fills every field of the Record, each present when its
// selector bit in the first four bytes is set.
func (g *recordGen) record() *Record {
	sel := uint32(g.byte()) | uint32(g.byte())<<8 | uint32(g.byte())<<16 | uint32(g.byte())<<24
	on := func(i int) bool { return sel&(1<<i) != 0 }
	r := &Record{Op: Op(g.byte()%uint8(OpIngestDone) + 1)}
	if on(0) {
		r.Ann, r.Author, r.Body, r.Kind = g.str(), g.str(), g.str(), g.str()
	}
	if on(1) {
		r.AttachTo = genList(g, g.tuple)
	}
	if on(2) {
		r.Tuple, r.Table, r.Column = g.tuple(), g.str(), g.str()
	}
	if on(3) {
		r.Values = genList(g, g.cell)
	}
	if on(4) {
		r.Value = g.cell()
	}
	if on(5) {
		r.Focal = genList(g, g.tuple)
	}
	if on(6) {
		r.Candidates = genList(g, func() CandidateRef {
			return CandidateRef{Tuple: g.tuple(), Confidence: g.float(), Evidence: genList(g, g.str)}
		})
	}
	r.Degraded, r.Accept = on(7), on(8)
	if on(9) {
		r.FirstVID, r.VID = int64(g.u64()), int64(g.u64())
	}
	if on(10) {
		r.Hops = genList(g, g.byte)
	}
	if on(11) {
		r.Lower, r.Upper = g.float(), g.float()
	}
	if on(12) {
		r.JobKind, r.Priority, r.Seq = g.byte(), int(int64(g.u64())), g.u64()
	}
	return r
}

// normalized is r as gob would decode it: every empty slice is nil.
func normalized(r *Record) *Record {
	c := *r
	c.AttachTo = nilIfEmpty(c.AttachTo)
	c.Values = nilIfEmpty(c.Values)
	c.Focal = nilIfEmpty(c.Focal)
	c.Hops = nilIfEmpty(c.Hops)
	c.Candidates = nilIfEmpty(append([]CandidateRef(nil), c.Candidates...))
	for i := range c.Candidates {
		c.Candidates[i].Evidence = nilIfEmpty(c.Candidates[i].Evidence)
	}
	return &c
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
