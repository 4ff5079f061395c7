package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// The stream:
//
//	magic[8] | version u32 | payload length u64 | section count u32
//	section count × ( body length u64 | CRC32-C(body) u32 | body )
//
// all little-endian. Sections come in a fixed order: Meta, one
// tableSection per table in creation order, annotationSection,
// graphSection. Each body is a gob stream of its own, so one section is
// decoded without reading another.
//
// Every field is covered: a damaged body or checksum fails that section's
// CRC, and a damaged length or count makes the frames stop short of, or run
// past, the payload length, which must be met exactly. Version 1 (one gob
// stream of per-cell structs behind the same 24 bytes, with a whole-payload
// CRC where the section count now sits) is still read; see v1.go.

// FormatVersion identifies the on-disk layout Save writes.
const FormatVersion = 2

const (
	headerLen = 8 + 4 + 8 + 4
	frameLen  = 8 + 4
)

// magic opens every snapshot stream.
var magic = [8]byte{'N', 'E', 'B', 'S', 'N', 'A', 'P', 0}

// castagnoli is the CRC32 polynomial used for section checksums (the same
// choice as iSCSI/ext4 — better error detection than IEEE and hardware-
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type columnDump struct {
	Name     string
	Type     int
	Indexed  bool
	FullText bool
}

type foreignKeyDump struct {
	Column, RefTable, RefColumn string
}

// tableSection is one table: its schema and its cells, column by column.
type tableSection struct {
	Name        string
	Columns     []columnDump
	PrimaryKey  string
	ForeignKeys []foreignKeyDump
	Rows        int
	// Cells has one entry per column, holding the slice that matches the
	// column's type: a numeric column stores no text at all.
	Cells []cellColumn
}

type cellColumn struct {
	Strings packedStrings
	Ints    []int64
	Floats  []float64
}

// annotationSection is the annotation store: the annotations in insertion
// order, then every attachment edge in attach order.
type annotationSection struct {
	IDs, Authors, Bodies, Kinds packedStrings

	// Annotation is each edge's annotation as an index into IDs.
	Annotation  []uint64
	Tuples      tupleColumn
	Columns     packedStrings
	Types       []int64
	Confidences []float64
}

// graphSection is the ACG: what acg.Load rebuilds it from.
type graphSection struct {
	Attachments tupleLists
	Stability   stabilityDump
}

type stabilityDump struct {
	BatchSize                                      int
	Mu                                             float64
	BatchAnnotations, BatchAttachments, BatchEdges int
	BatchesClosed                                  int
	Stable                                         bool
}

// packedStrings is a string column: every string's bytes end to end in one
// blob, and their lengths. Decoding it costs two allocations however many
// strings it holds, and the strings it yields are windows of the blob.
type packedStrings struct {
	Lens []uint64
	Blob string
}

func packStrings(n int, at func(i int) string) packedStrings {
	p := packedStrings{Lens: make([]uint64, n)}
	size := 0
	for i := range p.Lens {
		size += len(at(i))
	}
	var blob strings.Builder
	blob.Grow(size)
	for i := range p.Lens {
		s := at(i)
		p.Lens[i] = uint64(len(s))
		blob.WriteString(s)
	}
	p.Blob = blob.String()
	return p
}

func (p packedStrings) unpack() ([]string, error) {
	out := make([]string, len(p.Lens))
	rest := p.Blob
	for i, n := range p.Lens {
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: string %d of a column runs past its blob", ErrCorrupt, i)
		}
		out[i], rest = rest[:n], rest[n:]
	}
	if rest != "" {
		return nil, fmt.Errorf("%w: %d blob bytes belong to no string", ErrCorrupt, len(rest))
	}
	return out, nil
}

// tupleColumn is a column of tuple identities: the table of each as an
// index into the distinct table names, and the keys packed.
type tupleColumn struct {
	TableNames []string
	Table      []uint64
	Keys       packedStrings
}

func packTuples(n int, at func(i int) relational.TupleID) tupleColumn {
	c := tupleColumn{Table: make([]uint64, n)}
	index := make(map[string]uint64)
	for i := range c.Table {
		name := at(i).Table
		ti, ok := index[name]
		if !ok {
			ti = uint64(len(c.TableNames))
			index[name] = ti
			c.TableNames = append(c.TableNames, name)
		}
		c.Table[i] = ti
	}
	c.Keys = packStrings(n, func(i int) string { return at(i).Key })
	return c
}

func (c tupleColumn) unpack() ([]relational.TupleID, error) {
	keys, err := c.Keys.unpack()
	if err != nil {
		return nil, err
	}
	if len(keys) != len(c.Table) {
		return nil, fmt.Errorf("%w: %d tuple keys for %d tuples", ErrCorrupt, len(keys), len(c.Table))
	}
	out := make([]relational.TupleID, len(keys))
	for i, ti := range c.Table {
		if ti >= uint64(len(c.TableNames)) {
			return nil, fmt.Errorf("%w: tuple %d names table %d of %d", ErrCorrupt, i, ti, len(c.TableNames))
		}
		out[i] = relational.TupleID{Table: c.TableNames[ti], Key: keys[i]}
	}
	return out, nil
}

// tupleLists is a list of annotations, each with a list of tuples.
type tupleLists struct {
	IDs    packedStrings
	Counts []uint64
	Tuples tupleColumn
}

func packTupleLists(lists []acg.AnnotationTuples) tupleLists {
	p := tupleLists{
		IDs:    packStrings(len(lists), func(i int) string { return string(lists[i].ID) }),
		Counts: make([]uint64, len(lists)),
	}
	var flat []relational.TupleID
	for i, l := range lists {
		p.Counts[i] = uint64(len(l.Tuples))
		flat = append(flat, l.Tuples...)
	}
	p.Tuples = packTuples(len(flat), func(i int) relational.TupleID { return flat[i] })
	return p
}

// unpack cuts every annotation's tuples out of one slab, each list capped
// to its own length so that an append to one can never reach the next.
func (p tupleLists) unpack() ([]acg.AnnotationTuples, error) {
	ids, err := p.IDs.unpack()
	if err != nil {
		return nil, err
	}
	rest, err := p.Tuples.unpack()
	if err != nil {
		return nil, err
	}
	if len(ids) != len(p.Counts) {
		return nil, fmt.Errorf("%w: %d annotation ids for %d tuple lists", ErrCorrupt, len(ids), len(p.Counts))
	}
	out := make([]acg.AnnotationTuples, len(ids))
	for i, n := range p.Counts {
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: tuple list %d runs past the tuples stored", ErrCorrupt, i)
		}
		out[i] = acg.AnnotationTuples{ID: annotation.ID(ids[i]), Tuples: rest[:n:n]}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d tuples belong to no list", ErrCorrupt, len(rest))
	}
	return out, nil
}

// sections lists the values the stream's sections encode from and decode
// into, in stream order. s.Tables must already have its final length.
func (s *Snapshot) sections() []any {
	out := make([]any, 0, len(s.Tables)+3)
	out = append(out, &s.Meta)
	for i := range s.Tables {
		out = append(out, &s.Tables[i])
	}
	return append(out, &s.Annotations, &s.Graph)
}

// Save writes the snapshot in the current format.
func Save(w io.Writer, s *Snapshot) error {
	if s.TableCount != len(s.Tables) {
		return fmt.Errorf("snapshot: meta counts %d tables, snapshot holds %d", s.TableCount, len(s.Tables))
	}
	sections := s.sections()
	var payload bytes.Buffer
	for _, sec := range sections {
		at := payload.Len()
		payload.Write(make([]byte, frameLen))
		if err := gob.NewEncoder(&payload).Encode(sec); err != nil {
			return fmt.Errorf("snapshot: encode: %w", err)
		}
		frame := payload.Bytes()[at:]
		binary.LittleEndian.PutUint64(frame[0:8], uint64(len(frame)-frameLen))
		binary.LittleEndian.PutUint32(frame[8:12], crc32.Checksum(frame[frameLen:], castagnoli))
	}
	header := make([]byte, 0, headerLen)
	header = append(header, magic[:]...)
	header = binary.LittleEndian.AppendUint32(header, FormatVersion)
	header = binary.LittleEndian.AppendUint64(header, uint64(payload.Len()))
	header = binary.LittleEndian.AppendUint32(header, uint32(len(sections)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	return nil
}

// Load reads and decodes a snapshot stream, verifying every checksum before
// anything is decoded. A stream that does not open with the magic is
// ErrCorrupt.
func Load(r io.Reader) (*Snapshot, error) {
	s, _, err := load(r, 1)
	return s, err
}

// load is Load on up to workers goroutines, with the stage accounting.
func load(r io.Reader, workers int) (*Snapshot, RestoreStats, error) {
	var stats RestoreStats
	var head [headerLen]byte
	if n, err := io.ReadFull(r, head[:len(magic)]); n < len(magic) {
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			return nil, stats, fmt.Errorf("snapshot: read header: %w", err)
		}
		return nil, stats, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if !bytes.Equal(head[:len(magic)], magic[:]) {
		return nil, stats, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, head[len(magic):]); err != nil {
		return nil, stats, fmt.Errorf("%w: truncated header (%v)", ErrCorrupt, err)
	}
	version := binary.LittleEndian.Uint32(head[8:12])
	length := binary.LittleEndian.Uint64(head[12:20])
	// The last field is the section count, or version 1's payload checksum.
	trailer := binary.LittleEndian.Uint32(head[20:24])
	if version != FormatVersion && version != 1 {
		return nil, stats, fmt.Errorf("snapshot: unsupported version %d (want %d)", version, FormatVersion)
	}
	payload, err := readPayload(r, length)
	if err != nil {
		return nil, stats, err
	}
	stats.Bytes = int64(headerLen + len(payload))
	if version == 1 {
		s, err := loadV1(payload, trailer, &stats)
		return s, stats, err
	}

	// Cut the frames first: it costs nothing, and proves the lengths and
	// the count consistent with the payload before any byte is trusted.
	type frame struct {
		sum  uint32
		body []byte
	}
	var frames []frame
	for rest := payload; len(rest) > 0; {
		if len(rest) < frameLen {
			return nil, stats, fmt.Errorf("%w: %d stray bytes after the last section", ErrCorrupt, len(rest))
		}
		n := binary.LittleEndian.Uint64(rest[0:8])
		if n > uint64(len(rest)-frameLen) {
			return nil, stats, fmt.Errorf("%w: section %d claims %d bytes, %d remain", ErrCorrupt, len(frames), n, len(rest)-frameLen)
		}
		frames = append(frames, frame{binary.LittleEndian.Uint32(rest[8:12]), rest[frameLen : frameLen+n]})
		rest = rest[frameLen+n:]
	}
	if uint64(len(frames)) != uint64(trailer) || len(frames) < 3 {
		return nil, stats, fmt.Errorf("%w: header counts %d sections, payload holds %d", ErrCorrupt, trailer, len(frames))
	}
	stats.Sections = len(frames)

	// Verify everything before decoding anything: no section is handed to
	// the decoder, let alone built, once any of them is known bad.
	stage := startStage(&stats.VerifySeconds)
	g := newGroup(workers)
	for i, f := range frames {
		g.run(i, func() error {
			if got := crc32.Checksum(f.body, castagnoli); got != f.sum {
				return fmt.Errorf("%w: section %d checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, i, f.sum, got)
			}
			return nil
		})
	}
	err = g.wait()
	stage.stop()
	if err != nil {
		return nil, stats, err
	}

	stage = startStage(&stats.DecodeSeconds)
	s := &Snapshot{Tables: make([]tableSection, len(frames)-3)}
	sections := s.sections()
	g = newGroup(workers)
	for i, f := range frames {
		g.run(i, func() error {
			if err := gob.NewDecoder(bytes.NewReader(f.body)).Decode(sections[i]); err != nil {
				// The bytes are what some writer checksummed, so this is
				// a stream Save did not produce.
				return fmt.Errorf("snapshot: decode section %d: %w", i, err)
			}
			return nil
		})
	}
	err = g.wait()
	stage.stop()
	if err != nil {
		return nil, stats, err
	}
	if s.TableCount != len(s.Tables) {
		return nil, stats, fmt.Errorf("%w: meta counts %d tables, stream holds %d", ErrCorrupt, s.TableCount, len(s.Tables))
	}
	return s, stats, nil
}

// readPayload reads the length bytes the header announced. The length field
// may itself be damaged (a flipped high bit asks for terabytes), so it never
// sizes an allocation on its own: when the reader can say how much it still
// holds, a longer claim is refused before anything is allocated and the
// buffer is then made once at its final size; otherwise the buffer grows
// with the bytes that actually arrive.
func readPayload(r io.Reader, length uint64) ([]byte, error) {
	if int64(length) < 0 {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	if have, ok := remaining(r); ok {
		if uint64(have) < length {
			return nil, fmt.Errorf("%w: truncated payload: header announces %d bytes, %d remain", ErrCorrupt, length, have)
		}
		payload := make([]byte, length)
		if n, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated payload at %d/%d bytes (%v)", ErrCorrupt, n, length, err)
		}
		return payload, nil
	}
	var payload bytes.Buffer
	if n, err := io.CopyN(&payload, r, int64(length)); err != nil {
		return nil, fmt.Errorf("%w: truncated payload at %d/%d bytes (%v)", ErrCorrupt, n, length, err)
	}
	return payload.Bytes(), nil
}

// remaining reports how many bytes r still holds, when r can tell: in-memory
// readers through Len, files through Seek.
func remaining(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len()), true
	case io.Seeker:
		at, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return 0, false
		}
		if _, err := v.Seek(at, io.SeekStart); err != nil {
			return 0, false
		}
		return end - at, true
	}
	return 0, false
}
