package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// fields stay zero and cost nothing in the gob encoding. Every record is
// encoded self-contained (its own gob stream), so replay after a torn tail
// never needs decoder state from a record that may not have survived.
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
	// acceptances means it was written before records carried distances,
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
// CRC32-Castagnoli of the payload (uint32 LE), and the two repeated XORed
// with frameGuard as a cheap header self-check — followed by the gob
// payload. The guard catches the common torn-write shape where the header
// bytes survive but belong to a different (partially overwritten) frame.
const frameHeaderSize = 12

// frameGuard mixes length and checksum into the third header word so a
// header whose fields were independently corrupted is rejected before the
// payload is even read.
const frameGuard = 0x57414c31 // "WAL1"

// maxRecordSize bounds one record's payload. The length field of a torn
// frame is attacker-controlled garbage; without a bound a flipped high bit
// would make replay try to buffer gigabytes before the CRC check fails.
const maxRecordSize = 64 << 20

// castagnoli matches the snapshot package's checksum choice.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports a frame that failed integrity verification —
// short header, implausible length, header guard mismatch, truncated
// payload, or checksum failure. Replay treats it as the end of the durable
// prefix. Match with errors.Is.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// EncodeRecord appends the framed record to buf and returns the extended
// slice.
func EncodeRecord(buf []byte, r *Record) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(r); err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	if payload.Len() > maxRecordSize {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds %d", payload.Len(), maxRecordSize)
	}
	length := uint32(payload.Len())
	sum := crc32.Checksum(payload.Bytes(), castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, length)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	buf = binary.LittleEndian.AppendUint32(buf, length^sum^frameGuard)
	return append(buf, payload.Bytes()...), nil
}

// DecodeRecord reads one framed record from r. It returns io.EOF at a
// clean end of stream (zero bytes where a frame would start) and
// ErrCorruptRecord for anything that fails verification — a partial
// header, a header that fails the guard check, a payload shorter than its
// declared length, a checksum mismatch, or an undecodable payload.
func DecodeRecord(r io.Reader) (*Record, error) {
	var head [frameHeaderSize]byte
	n, err := io.ReadFull(r, head[:])
	if n == 0 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: torn header (%d of %d bytes)", ErrCorruptRecord, n, frameHeaderSize)
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	guard := binary.LittleEndian.Uint32(head[8:12])
	if length^sum^frameGuard != guard {
		return nil, fmt.Errorf("%w: header guard mismatch", ErrCorruptRecord)
	}
	if length > maxRecordSize {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptRecord, length)
	}
	payload := make([]byte, int(length))
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload (%d of %d bytes)", ErrCorruptRecord, m, length)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptRecord, sum, got)
	}
	var rec Record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		// The checksum matched, so the bytes are what was written — but a
		// crash can tear a record into the tail of a *previous* incarnation
		// of the file on filesystems without write atomicity. Treat it as
		// corruption, not a format error.
		return nil, fmt.Errorf("%w: undecodable payload: %v", ErrCorruptRecord, err)
	}
	return &rec, nil
}
