package snapshot

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// Format version 1, as the previous release wrote it: the whole state as
// one gob stream of row-of-cell structs, under one CRC32-C in the header
// field that now holds the section count. Nothing writes it any more. The
// reader turns it into the current Snapshot, so a version 1 file goes
// through the same loaders as a version 2 one; the types below mirror the
// old ones field for field, which is what gob matches on.

type snapshotV1 struct {
	Version int

	Tables      []tableV1
	Annotations []annotationV1
	Attachments []attachmentV1

	GraphAttachments []graphAnnV1
	GraphStability   stabilityDump

	ProfileBuckets     []int
	ProfileUnreachable int

	WALSegment uint64
	StoreSeq   uint64

	HasBounds   bool
	BoundsLower float64
	BoundsUpper float64

	Tasks   []TaskDump
	NextVID int64

	IngestJobs    []IngestJobDump
	IngestNextSeq uint64

	ManualFocal []graphAnnV1
}

type tableV1 struct {
	Name        string
	Columns     []columnDump
	PrimaryKey  string
	ForeignKeys []foreignKeyDump
	Rows        [][]cellV1
}

type cellV1 struct {
	Kind int
	Int  int64
	Flt  float64
	Str  string
}

type annotationV1 struct {
	ID, Author, Body, Kind string
}

type attachmentV1 struct {
	Annotation string
	Table, Key string
	Column     string
	Type       int
	Confidence float64
}

// graphAnnV1 is an annotation with a tuple list: the old graphAnnDump and
// ManualFocalDump, which had the same fields.
type graphAnnV1 struct {
	Annotation string
	Tuples     []struct{ Table, Key string }
}

func loadV1(payload []byte, sum uint32, stats *RestoreStats) (*Snapshot, error) {
	stats.Sections = 1
	stage := startStage(&stats.VerifySeconds)
	got := crc32.Checksum(payload, castagnoli)
	stage.stop()
	if got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	defer startStage(&stats.DecodeSeconds).stop()
	var old snapshotV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&old); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if old.Version != 1 {
		return nil, fmt.Errorf("snapshot: version 1 header over a version %d payload", old.Version)
	}
	return old.upgrade()
}

func (old *snapshotV1) upgrade() (*Snapshot, error) {
	lists := func(in []graphAnnV1) tupleLists {
		out := make([]acg.AnnotationTuples, len(in))
		for i, d := range in {
			out[i].ID = annotation.ID(d.Annotation)
			for _, t := range d.Tuples {
				out[i].Tuples = append(out[i].Tuples, relational.TupleID{Table: t.Table, Key: t.Key})
			}
		}
		return packTupleLists(out)
	}
	s := &Snapshot{
		Meta: Meta{
			TableCount:         len(old.Tables),
			ProfileBuckets:     old.ProfileBuckets,
			ProfileUnreachable: old.ProfileUnreachable,
			WALSegment:         old.WALSegment,
			StoreSeq:           old.StoreSeq,
			HasBounds:          old.HasBounds,
			BoundsLower:        old.BoundsLower,
			BoundsUpper:        old.BoundsUpper,
			Tasks:              old.Tasks,
			NextVID:            old.NextVID,
			IngestJobs:         old.IngestJobs,
			IngestNextSeq:      old.IngestNextSeq,
			ManualFocal:        lists(old.ManualFocal),
		},
		Graph: graphSection{Attachments: lists(old.GraphAttachments), Stability: old.GraphStability},
	}

	for _, td := range old.Tables {
		sec := tableSection{
			Name: td.Name, Columns: td.Columns, PrimaryKey: td.PrimaryKey, ForeignKeys: td.ForeignKeys,
			Rows: len(td.Rows), Cells: make([]cellColumn, len(td.Columns)),
		}
		for i, row := range td.Rows {
			if len(row) != len(td.Columns) {
				return nil, fmt.Errorf("snapshot: table %s: row %d has %d cells, schema has %d columns", td.Name, i, len(row), len(td.Columns))
			}
		}
		for j, c := range td.Columns {
			for i, row := range td.Rows {
				if row[j].Kind != c.Type {
					return nil, fmt.Errorf("snapshot: table %s: row %d column %s expects %v, got %v",
						td.Name, i, c.Name, relational.Type(c.Type), relational.Type(row[j].Kind))
				}
			}
			col := &sec.Cells[j]
			switch relational.Type(c.Type) {
			case relational.TypeInt:
				col.Ints = make([]int64, len(td.Rows))
				for i, row := range td.Rows {
					col.Ints[i] = row[j].Int
				}
			case relational.TypeFloat:
				col.Floats = make([]float64, len(td.Rows))
				for i, row := range td.Rows {
					col.Floats[i] = row[j].Flt
				}
			default:
				col.Strings = packStrings(len(td.Rows), func(i int) string { return td.Rows[i][j].Str })
			}
		}
		s.Tables = append(s.Tables, sec)
	}

	a := &s.Annotations
	position := make(map[string]uint64, len(old.Annotations))
	for i, ad := range old.Annotations {
		position[ad.ID] = uint64(i)
	}
	a.IDs = packStrings(len(old.Annotations), func(i int) string { return old.Annotations[i].ID })
	a.Authors = packStrings(len(old.Annotations), func(i int) string { return old.Annotations[i].Author })
	a.Bodies = packStrings(len(old.Annotations), func(i int) string { return old.Annotations[i].Body })
	a.Kinds = packStrings(len(old.Annotations), func(i int) string { return old.Annotations[i].Kind })
	n := len(old.Attachments)
	a.Annotation, a.Types, a.Confidences = make([]uint64, n), make([]int64, n), make([]float64, n)
	for i, att := range old.Attachments {
		at, ok := position[att.Annotation]
		if !ok {
			return nil, fmt.Errorf("snapshot: attach: unknown annotation %q", att.Annotation)
		}
		a.Annotation[i], a.Types[i], a.Confidences[i] = at, int64(att.Type), att.Confidence
	}
	a.Tuples = packTuples(n, func(i int) relational.TupleID {
		return relational.TupleID{Table: old.Attachments[i].Table, Key: old.Attachments[i].Key}
	})
	a.Columns = packStrings(n, func(i int) string { return old.Attachments[i].Column })
	return s, nil
}
