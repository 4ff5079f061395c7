package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
)

// Op enumerates the logical mutation kinds the engine logs. Records are
// logical, not physical: each one replays deterministically against the
// engine state produced by the records before it, so snapshot + replay
// reconstructs the exact pre-crash state. Outcome-dependent operations
// (discovery submissions, oracle resolutions, bounds tuning) log their
// computed result, never the computation — replay must not depend on
// wall-clock budgets, oracles, or training runs.
type Op uint8

const (
	// OpAddAnnotation records AddAnnotation: a new annotation plus its
	// manual true attachments.
	OpAddAnnotation Op = iota + 1
	// OpDeleteTuple records DeleteTuple: full referential-integrity
	// removal of one data tuple.
	OpDeleteTuple
	// OpInsertRow records one row insert on a base table (MutateDB).
	OpInsertRow
	// OpUpdateRow records one single-column row update (MutateDB).
	OpUpdateRow
	// OpDeleteRow records one raw row delete on a base table (MutateDB;
	// distinct from OpDeleteTuple, which also detaches and cancels).
	OpDeleteRow
	// OpSubmit records the verification routing of one discovery's
	// computed candidates (Process/ProcessRequest Stage 3). FirstVID pins
	// the VID counter so replayed tasks get identical identifiers; Hops
	// carries the hop distance measured live for every auto-accepted
	// candidate, so replay records it in the hop profile without
	// searching the ACG.
	OpSubmit
	// OpVerdict records one expert decision: accept or reject of a
	// pending verification task, named by its VID with the annotation and
	// tuple beside it. An acceptance carries its measured hop distance in
	// Hops.
	OpVerdict
	// OpSetBounds records a verification-threshold change (SetBounds or
	// the result of TuneBounds).
	OpSetBounds
	// OpIngestEnqueue records one ingest-queue admission (an async submit
	// or a change-driven re-discovery). The sequence number assigned live
	// travels with the record, so replay rebuilds the identical drain
	// order; a coalescing enqueue that upgraded a queued job's shape is
	// re-logged under the job's original sequence.
	OpIngestEnqueue
	// OpIngestRetract records the retraction phase of one drained ingest
	// job: the annotation's machine-derived attachments, their ACG edges,
	// and its pending verification tasks are removed before re-discovery.
	// Retraction is deterministic given the state the prior records
	// produced, so the record carries only the annotation.
	OpIngestRetract
	// OpIngestDone records the completion of one drained ingest job; the
	// submission itself was already logged as an OpSubmit. A replayed
	// queue is the enqueued jobs minus the done ones.
	OpIngestDone
)

func (o Op) String() string {
	switch o {
	case OpAddAnnotation:
		return "add_annotation"
	case OpDeleteTuple:
		return "delete_tuple"
	case OpInsertRow:
		return "insert_row"
	case OpUpdateRow:
		return "update_row"
	case OpDeleteRow:
		return "delete_row"
	case OpSubmit:
		return "submit"
	case OpVerdict:
		return "verdict"
	case OpSetBounds:
		return "set_bounds"
	case OpIngestEnqueue:
		return "ingest_enqueue"
	case OpIngestRetract:
		return "ingest_retract"
	case OpIngestDone:
		return "ingest_done"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// TupleRef names one tuple (table + canonical primary-key form). The WAL
// deliberately does not import the relational package: records must stay
// decodable by offline tooling without dragging the engine in.
type TupleRef struct {
	Table, Key string
}

func (t TupleRef) String() string { return t.Table + "/" + t.Key }

// Cell is one serialized column value. Kind mirrors relational.Type.
type Cell struct {
	Kind int
	Int  int64
	Flt  float64
	Str  string
}

// CandidateRef is one discovered candidate as routed to verification:
// enough to rebuild the verification task and its acceptance side effects.
type CandidateRef struct {
	Tuple      TupleRef
	Confidence float64
	Evidence   []string
}

// Record is one logged mutation. It is a tagged union over Op; unused
// fields stay zero and cost nothing: a payload lists which fields are
// non-zero and carries only those. Every record is framed and encoded
// self-contained, so replay after a torn tail never needs state from a
// record that may not have survived.
type Record struct {
	Op Op

	// OpAddAnnotation
	Ann      string
	Author   string
	Body     string
	Kind     string
	AttachTo []TupleRef

	// OpDeleteTuple / OpDeleteRow / OpUpdateRow target tuple;
	// OpInsertRow uses Table + Values (the PK is one of the values).
	Tuple  TupleRef
	Table  string
	Column string
	Values []Cell
	Value  Cell

	// OpSubmit
	Focal      []TupleRef
	Candidates []CandidateRef
	Degraded   bool
	FirstVID   int64

	// OpVerdict
	VID    int64
	Accept bool

	// OpSubmit and accepting OpVerdict: the ACG hop distance of each
	// acceptance from the annotation's focal, measured before any of the
	// record's edges were added, in routing order — one uvarint of d+1,
	// 0 for a tuple the focal could not reach. Nil on a record with
	// acceptances means it was written before records carried distances
	// (so in a WAL1 frame: the engine has logged them since before WAL2),
	// and replay measures them again.
	Hops []byte

	// OpSetBounds
	Lower, Upper float64

	// OpIngestEnqueue (OpIngestRetract/OpIngestDone reuse Ann alone)
	JobKind  uint8
	Priority int
	Seq      uint64
}

// Frame layout: a fixed 12-byte header — payload length (uint32 LE),
// CRC32-Castagnoli of the payload (uint32 LE), and the two XORed with a
// guard word as a cheap header self-check — followed by the payload. The
// guard catches the common torn-write shape where the header bytes
// survive but belong to a different (partially overwritten) frame, and it
// names the payload's format, so telling formats apart costs no payload
// byte:
//
//   - frameGuard2 ("WAL2") marks every frame written: Op as one byte, a
//     uvarint bitmask of the non-zero fields after it, then exactly those
//     fields in declaration order (see codec.record);
//   - frameGuard1 ("WAL1") marks a frame written before that: a gob
//     stream of one Record, read by the decode-only decodeGob.
//
// A header that matches neither guard is corrupt.
const frameHeaderSize = 12

const (
	frameGuard1 = 0x57414c31 // "WAL1"
	frameGuard2 = 0x57414c32 // "WAL2"
)

// maxRecordSize bounds one record's payload. The length field of a torn
// frame is attacker-controlled garbage; without a bound a flipped high bit
// would make replay try to buffer gigabytes before the CRC check fails.
const maxRecordSize = 64 << 20

// castagnoli matches the snapshot package's checksum choice.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports a frame that failed integrity verification —
// short header, implausible length, header guard mismatch, truncated
// payload, checksum failure, or a payload that is not the encoding of a
// record. Replay treats it as the end of the durable prefix. Match with
// errors.Is.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// EncodeRecord appends the framed record to buf and returns the extended
// slice. The frame is always a WAL2 frame.
func EncodeRecord(buf []byte, r *Record) ([]byte, error) {
	start := len(buf)
	buf = appendPayload(append(buf, make([]byte, frameHeaderSize)...), r)
	payload := buf[start+frameHeaderSize:]
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds %d", len(payload), maxRecordSize)
	}
	length := uint32(len(payload))
	sum := crc32.Checksum(payload, castagnoli)
	binary.LittleEndian.PutUint32(buf[start:], length)
	binary.LittleEndian.PutUint32(buf[start+4:], sum)
	binary.LittleEndian.PutUint32(buf[start+8:], length^sum^frameGuard2)
	return buf, nil
}

// DecodeRecord reads one framed record, of either format, from r. It
// returns io.EOF at a clean end of stream (zero bytes where a frame would
// start) and ErrCorruptRecord for anything that fails verification — a
// partial header, a header that matches neither guard, a payload shorter
// than its declared length, a checksum mismatch, or an undecodable
// payload.
func DecodeRecord(r io.Reader) (*Record, error) {
	rec, _, err := decodeFrame(r)
	return rec, err
}

// decodeFrame is DecodeRecord that also reports the frame's guard word,
// which names its format.
func decodeFrame(r io.Reader) (*Record, uint32, error) {
	var head [frameHeaderSize]byte
	n, err := io.ReadFull(r, head[:])
	if n == 0 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: torn header (%d of %d bytes)", ErrCorruptRecord, n, frameHeaderSize)
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	guard := length ^ sum ^ binary.LittleEndian.Uint32(head[8:12])
	if guard != frameGuard1 && guard != frameGuard2 {
		return nil, 0, fmt.Errorf("%w: header guard mismatch", ErrCorruptRecord)
	}
	if length > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorruptRecord, length)
	}
	payload := make([]byte, int(length))
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: torn payload (%d of %d bytes)", ErrCorruptRecord, m, length)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptRecord, sum, got)
	}
	decode := decodePayload
	if guard == frameGuard1 {
		decode = decodeGob
	}
	rec, err := decode(payload)
	if err != nil {
		// The checksum matched, so the bytes are what was written — but a
		// crash can tear a record into the tail of a *previous* incarnation
		// of the file on filesystems without write atomicity. Treat it as
		// corruption, not a format error.
		return nil, 0, fmt.Errorf("%w: undecodable payload: %v", ErrCorruptRecord, err)
	}
	return rec, guard, nil
}

// decodeGob reads the payload of a WAL1 frame: one Record as its own gob
// stream. It is decode-only, kept for logs written before WAL2 frames,
// and goes with the version-1 snapshot decoder.
func decodeGob(payload []byte) (*Record, error) {
	var rec Record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// appendPayload appends the WAL2 payload of r: Op, the mask of the
// non-zero fields, and those fields.
func appendPayload(buf []byte, r *Record) []byte {
	var c codec
	c.record(r)
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, c.mask)
	return append(buf, c.buf...)
}

// decodePayload reads the payload of a WAL2 frame. It is strict: a count
// larger than the bytes left could hold is refused before anything is
// allocated, and the payload must be exactly the encoding of the record it
// decodes to — no trailing bytes, no field marked present but zero, no
// unknown bit in the mask, no overlong varint — so decoding, encoding
// again and decoding again always gives the same record.
func decodePayload(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty payload")
	}
	rec := &Record{Op: Op(payload[0])}
	c := codec{dec: true, buf: payload[1:]}
	c.uint(&c.mask)
	c.record(rec)
	if c.bad {
		return nil, errors.New("payload ends inside a field")
	}
	if !bytes.Equal(appendPayload(nil, rec), payload) {
		return nil, errors.New("payload is not the encoding of its record")
	}
	return rec, nil
}

// codec runs the WAL2 layout in one direction. Encoding appends each
// non-zero field to buf and sets its bit in mask; decoding reads from buf
// the fields whose bits are set. The first short or oversized read marks a
// decode bad and empties buf, so every later read fails at once and
// allocates nothing.
type codec struct {
	dec, bad bool
	mask     uint64
	n        uint // fields visited so far
	buf      []byte
}

// record is the WAL2 layout: every field after Op, in declaration order,
// each at the next bit of the mask. Inside a field every part is coded,
// zero or not: strings and byte slices as a uvarint length and the bytes,
// counts as uvarints, ints as zig-zag varints, floats as the uvarint of
// their byte-reversed bits (exact, and short for round numbers). Degraded
// and Accept are their mask bits alone.
func (c *codec) record(r *Record) {
	field(c, &r.Ann, r.Ann != "", (*codec).str)
	field(c, &r.Author, r.Author != "", (*codec).str)
	field(c, &r.Body, r.Body != "", (*codec).str)
	field(c, &r.Kind, r.Kind != "", (*codec).str)
	field(c, &r.AttachTo, len(r.AttachTo) > 0, tuples)
	field(c, &r.Tuple, r.Tuple != TupleRef{}, (*codec).tuple)
	field(c, &r.Table, r.Table != "", (*codec).str)
	field(c, &r.Column, r.Column != "", (*codec).str)
	field(c, &r.Values, len(r.Values) > 0, cells)
	field(c, &r.Value, r.Value != Cell{} || math.Signbit(r.Value.Flt), (*codec).cell) // -0 == 0, but is kept
	field(c, &r.Focal, len(r.Focal) > 0, tuples)
	field(c, &r.Candidates, len(r.Candidates) > 0, candidates)
	c.flag(&r.Degraded)
	field(c, &r.FirstVID, r.FirstVID != 0, (*codec).int)
	field(c, &r.VID, r.VID != 0, (*codec).int)
	c.flag(&r.Accept)
	field(c, &r.Hops, len(r.Hops) > 0, (*codec).bytes)
	field(c, &r.Lower, math.Float64bits(r.Lower) != 0, (*codec).float)
	field(c, &r.Upper, math.Float64bits(r.Upper) != 0, (*codec).float)
	field(c, &r.JobKind, r.JobKind != 0, (*codec).byte)
	field(c, &r.Priority, r.Priority != 0, (*codec).intn)
	field(c, &r.Seq, r.Seq != 0, (*codec).uint)
}

// present moves to the next field and reports whether it is coded:
// encoding, whether it is non-zero (then its bit is set); decoding,
// whether its bit is set.
func (c *codec) present(nonZero bool) bool {
	bit := uint64(1) << c.n
	c.n++
	if c.dec {
		return c.mask&bit != 0
	}
	if nonZero {
		c.mask |= bit
	}
	return nonZero
}

func field[T any](c *codec, p *T, nonZero bool, code func(*codec, *T)) {
	if c.present(nonZero) {
		code(c, p)
	}
}

func (c *codec) flag(p *bool) {
	if c.present(*p) && c.dec {
		*p = true
	}
}

func (c *codec) fail() { c.bad, c.buf = true, nil }

func (c *codec) uint(p *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *p)
		return
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail()
		return
	}
	*p, c.buf = v, c.buf[n:]
}

func (c *codec) int(p *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *p)
		return
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.fail()
		return
	}
	*p, c.buf = v, c.buf[n:]
}

// intn, byte and float convert through int and uint; a decoded byte that
// overflows fails decodePayload's re-encoding check.
func (c *codec) intn(p *int) {
	v := int64(*p)
	if c.int(&v); c.dec {
		*p = int(v)
	}
}

func (c *codec) byte(p *uint8) {
	v := uint64(*p)
	if c.uint(&v); c.dec {
		*p = uint8(v)
	}
}

func (c *codec) float(p *float64) {
	v := bits.ReverseBytes64(math.Float64bits(*p))
	if c.uint(&v); c.dec {
		*p = math.Float64frombits(bits.ReverseBytes64(v))
	}
}

// count codes a length. Decoding, it refuses one that the bytes left could
// not hold at minSize bytes an element.
func (c *codec) count(n *int, minSize int) {
	v := uint64(*n)
	if c.uint(&v); c.dec {
		if v > uint64(len(c.buf)/minSize) {
			c.fail()
			v = 0
		}
		*n = int(v)
	}
}

func (c *codec) bytes(p *[]byte) {
	n := len(*p)
	if c.count(&n, 1); !c.dec {
		c.buf = append(c.buf, *p...)
		return
	}
	*p, c.buf = append([]byte(nil), c.buf[:n]...), c.buf[n:]
}

func (c *codec) str(p *string) {
	n := len(*p)
	if c.count(&n, 1); !c.dec {
		c.buf = append(c.buf, *p...)
		return
	}
	*p, c.buf = string(c.buf[:n]), c.buf[n:]
}

// list codes a count and the elements; decoding, no elements is nil, as
// gob decodes an empty slice.
func list[T any](c *codec, p *[]T, minSize int, elem func(*codec, *T)) {
	n := len(*p)
	if c.count(&n, minSize); c.dec && n > 0 {
		*p = make([]T, n)
	}
	for i := 0; i < n; i++ {
		elem(c, &(*p)[i])
	}
}

// Elements take at least 2 (tuple) or 4 (cell, candidate) bytes.
func tuples(c *codec, p *[]TupleRef)         { list(c, p, 2, (*codec).tuple) }
func cells(c *codec, p *[]Cell)              { list(c, p, 4, (*codec).cell) }
func candidates(c *codec, p *[]CandidateRef) { list(c, p, 4, (*codec).candidate) }

func (c *codec) tuple(t *TupleRef) {
	c.str(&t.Table)
	c.str(&t.Key)
}

func (c *codec) cell(x *Cell) {
	c.intn(&x.Kind)
	c.int(&x.Int)
	c.float(&x.Flt)
	c.str(&x.Str)
}

func (c *codec) candidate(x *CandidateRef) {
	c.tuple(&x.Tuple)
	c.float(&x.Confidence)
	list(c, &x.Evidence, 1, (*codec).str)
}
