// Package snapshot persists and restores Nebula's runtime state: the
// relational data, the annotation store with all attachment edges, the
// Annotations Connectivity Graph (including its stability counters), and
// the hop-distance profile.
//
// A snapshot is a checksummed header followed by independently framed
// sections: one of metadata, one per table, one for annotations and
// attachments, one for the ACG (see format.go). Cells, identifiers and keys
// travel as typed columns, so a section decodes in a few tight loops, and
// each section carries its own CRC32-Castagnoli, so sections are verified,
// decoded and rebuilt independently of each other and a damaged one
// surfaces as ErrCorrupt before anything is built. Restore is a bulk load:
// tables, store and graph are rebuilt concurrently by the loaders of their
// own packages (see restore.go). SaveFile adds durability: temp file +
// fsync + atomic rename. Streams of the previous format version still load
// (see v1.go); the writer emits only the current one.
//
// The NebulaMeta repository is deliberately NOT part of a snapshot:
// ConceptRefs, equivalent names, ontologies, and value patterns are
// configuration, owned by the application the way schema definitions are —
// re-register them at startup and they stay under version control instead
// of inside opaque state files.
package snapshot

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
	"nebula/internal/vfs"
)

// ErrCorrupt reports a snapshot stream whose header is intact but whose
// payload fails integrity verification — it was truncated mid-write or
// bit-flipped at rest. Match with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt stream")

// Snapshot is the serializable engine state: the decoded form of the
// stream's sections.
type Snapshot struct {
	Meta
	Tables      []tableSection
	Annotations annotationSection
	Graph       graphSection
}

// Meta is the snapshot's small state: everything that is neither a table,
// the annotation store nor the ACG.
type Meta struct {
	// TableCount is how many table sections the stream holds; Load checks
	// it against the frames it found.
	TableCount int

	ProfileBuckets     []int
	ProfileUnreachable int

	// WALSegment is the checkpoint boundary when the snapshot was written
	// by a WAL-attached engine: the first WAL segment NOT folded into
	// this state. Replay skips segments below it, so a crash between
	// writing the snapshot and pruning the covered segments can never
	// double-apply history. Zero means "replay everything".
	WALSegment uint64

	// StoreSeq is the disk-backed search-index generation the snapshot
	// pairs with: a checkpoint that flushed the index tail into segment
	// files stamps the same sequence into both the snapshot and the
	// segment manifest. On restore, a manifest carrying a different
	// sequence belongs to some other moment in history and is discarded
	// (the index is rebuilt). Zero means the snapshot was written without
	// a disk-backed store.
	StoreSeq uint64

	// HasBounds/BoundsLower/BoundsUpper carry the engine's active
	// verification thresholds. Bounds are durable configuration state —
	// changes are WAL-logged, and a checkpoint prunes the segments whose
	// records established them, so the snapshot must carry them forward
	// or post-checkpoint replay would route submissions with stale
	// thresholds. HasBounds false means "keep the constructor's bounds".
	HasBounds   bool
	BoundsLower float64
	BoundsUpper float64

	// Tasks is the pending expert-verification queue, ordered by VID, and
	// NextVID the identifier the next submission will receive. Pending
	// tasks are durable state for the same reason bounds are: a checkpoint
	// prunes the WAL submissions that created them, so a snapshot that
	// dropped the queue would silently lose every task still awaiting an
	// expert at checkpoint time.
	Tasks   []TaskDump
	NextVID int64

	// IngestJobs is the streaming-ingest queue in drain order, and
	// IngestNextSeq its admission counter. Queued jobs are durable for the
	// same checkpoint-prunes-the-WAL reason as Tasks.
	IngestJobs    []IngestJobDump
	IngestNextSeq uint64

	// ManualFocal records, per annotation, the tuples a human attached
	// directly (AddAnnotation's attachTo) as opposed to accepted machine
	// predictions — the set a re-discovery retraction must never remove.
	// Empty in snapshots that predate it; restore then falls back to
	// treating every current focal tuple as manual.
	ManualFocal tupleLists
}

// IngestJobDump is one queued ingest job in serializable form. EnqueuedAt
// is deliberately absent: freshness clocks restart at restore time.
type IngestJobDump struct {
	Annotation string
	Kind       uint8
	Priority   int
	Seq        uint64
}

// TaskDump is one pending expert-verification task in serializable form.
// Decision is implicit: only Pending tasks are queued, so only Pending
// tasks are dumped.
type TaskDump struct {
	VID        int64
	Annotation string
	Table, Key string
	Confidence float64
	Evidence   []string
}

// State bundles the live objects a snapshot captures or restores.
type State struct {
	DB      *relational.Database
	Store   *annotation.Store
	Graph   *acg.Graph
	Profile *acg.Profile

	// HasBounds marks BoundsLower/BoundsUpper as meaningful (the engine
	// always sets it; tools capturing bare stores may not).
	HasBounds   bool
	BoundsLower float64
	BoundsUpper float64

	// Tasks/NextVID mirror Meta.Tasks: the pending verification queue and
	// its VID counter. Tasks must already be ordered by VID (the engine's
	// PendingTasks guarantees it) so captures are deterministic.
	Tasks   []TaskDump
	NextVID int64

	// IngestJobs/IngestNextSeq mirror Meta.IngestJobs; jobs must be
	// supplied in drain order for deterministic captures.
	IngestJobs    []IngestJobDump
	IngestNextSeq uint64

	// ManualFocal is each annotation's human-attached tuple list, sorted
	// by annotation ID. Capture copies the lists; Restore cuts them out of
	// one slab, each capped to its own length.
	ManualFocal []acg.AnnotationTuples
}

// Capture serializes the live state into a Snapshot value. The result
// shares no memory with the state: every string is copied into its
// column's blob.
func Capture(st State) (*Snapshot, error) {
	if st.DB == nil || st.Store == nil {
		return nil, fmt.Errorf("snapshot: nil database or store")
	}
	s := &Snapshot{Meta: Meta{
		HasBounds:     st.HasBounds,
		BoundsLower:   st.BoundsLower,
		BoundsUpper:   st.BoundsUpper,
		Tasks:         append([]TaskDump(nil), st.Tasks...),
		NextVID:       st.NextVID,
		IngestJobs:    append([]IngestJobDump(nil), st.IngestJobs...),
		IngestNextSeq: st.IngestNextSeq,
		ManualFocal:   packTupleLists(st.ManualFocal),
	}}

	names := st.DB.TableNames()
	s.TableCount = len(names)
	for _, name := range names {
		s.Tables = append(s.Tables, captureTable(st.DB.MustTable(name)))
	}

	ids := st.Store.IDs()
	anns := make([]*annotation.Annotation, len(ids))
	var atts []*annotation.Attachment
	var annOf []uint64
	for i, id := range ids {
		anns[i], _ = st.Store.Get(id)
		for _, att := range st.Store.Attachments(id, -1) {
			atts = append(atts, att)
			annOf = append(annOf, uint64(i))
		}
	}
	a := &s.Annotations
	a.IDs = packStrings(len(anns), func(i int) string { return string(anns[i].ID) })
	a.Authors = packStrings(len(anns), func(i int) string { return anns[i].Author })
	a.Bodies = packStrings(len(anns), func(i int) string { return anns[i].Body })
	a.Kinds = packStrings(len(anns), func(i int) string { return anns[i].Kind })
	a.Annotation = annOf
	a.Tuples = packTuples(len(atts), func(i int) relational.TupleID { return atts[i].Tuple })
	a.Columns = packStrings(len(atts), func(i int) string { return atts[i].Column })
	a.Types = make([]int64, len(atts))
	a.Confidences = make([]float64, len(atts))
	for i, att := range atts {
		a.Types[i], a.Confidences[i] = int64(att.Type), att.Confidence
	}

	if st.Graph != nil {
		s.Graph.Attachments = packTupleLists(st.Graph.Dump())
		bs, mu, ba, batt, be, bc, stable := st.Graph.StabilityState()
		s.Graph.Stability = stabilityDump{
			BatchSize: bs, Mu: mu,
			BatchAnnotations: ba, BatchAttachments: batt, BatchEdges: be,
			BatchesClosed: bc, Stable: stable,
		}
	}
	if st.Profile != nil {
		s.ProfileBuckets, s.ProfileUnreachable = st.Profile.Counts()
	}
	return s, nil
}

func captureTable(t *relational.Table) tableSection {
	schema, rows := t.Schema(), t.Rows()
	sec := tableSection{Name: schema.Name, PrimaryKey: schema.PrimaryKey, Rows: len(rows)}
	for _, fk := range schema.ForeignKeys {
		sec.ForeignKeys = append(sec.ForeignKeys, foreignKeyDump{
			Column: fk.Column, RefTable: fk.RefTable, RefColumn: fk.RefColumn,
		})
	}
	sec.Cells = make([]cellColumn, len(schema.Columns))
	for j, c := range schema.Columns {
		sec.Columns = append(sec.Columns, columnDump{
			Name: c.Name, Type: int(c.Type), Indexed: c.Indexed, FullText: c.FullText,
		})
		col := &sec.Cells[j]
		switch c.Type {
		case relational.TypeInt:
			col.Ints = make([]int64, len(rows))
			for i, r := range rows {
				col.Ints[i] = r.Values[j].AsInt()
			}
		case relational.TypeFloat:
			col.Floats = make([]float64, len(rows))
			for i, r := range rows {
				col.Floats[i] = r.Values[j].AsFloat()
			}
		default:
			col.Strings = packStrings(len(rows), func(i int) string { return rows[i].Values[j].Str() })
		}
	}
	return sec
}

// dirSyncFailures counts directory-fsync failures observed by SaveFileFS.
// On filesystems that reject fsync on directories, the atomic rename's
// durability is not guaranteed across power loss; operators should see
// that, not have it silently ignored — the counter is surfaced as
// nebula_snapshot_dirsync_failures_total and each failure is logged once
// through Logf.
var dirSyncFailures atomic.Int64

// DirSyncFailures reports how many directory-sync attempts have failed
// process-wide.
func DirSyncFailures() int64 { return dirSyncFailures.Load() }

// Logf receives one line per noteworthy non-fatal event (currently:
// directory-sync failures). Replaceable for tests and embedders; defaults
// to the standard logger.
var Logf = log.Printf

// SaveFile writes the snapshot to path durably and atomically: the stream
// goes to a temp file in the same directory, is fsynced, and only then
// renamed over path. A crash mid-write leaves the previous snapshot (or
// nothing) at path — never a half-written state file. The containing
// directory is fsynced after the rename so the new name itself survives a
// crash.
func SaveFile(path string, s *Snapshot) error {
	return SaveFileFS(vfs.OS{}, path, s)
}

// tmpSeq disambiguates concurrent temp files within one process; the pid
// in the name handles separate processes.
var tmpSeq atomic.Uint64

// SaveFileFS is SaveFile over an explicit filesystem seam — the hook the
// crash-fault tests use to inject short writes, fsync errors, and rename
// failures into the checkpoint path.
func SaveFileFS(fsys vfs.FS, path string, s *Snapshot) (err error) {
	dir := filepath.Dir(path)
	// The temp name must be unique per call: concurrent saves targeting
	// the same path (SaveSnapshotFile deliberately releases the engine
	// lock before disk I/O) would otherwise interleave writes into one
	// inode and could rename a corrupt stream over the last good snapshot.
	tmpPath := filepath.Join(dir, fmt.Sprintf(".%s.%d.%d.tmp",
		filepath.Base(path), os.Getpid(), tmpSeq.Add(1)))
	tmp, err := fsys.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmpPath)
		}
	}()
	if err = Save(tmp, s); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("snapshot: fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close: %w", err)
	}
	if err = fsys.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	if derr := fsys.SyncDir(dir); derr != nil {
		// The rename itself succeeded, so the new snapshot is the one a
		// reader sees — but on a crash before the filesystem flushes its
		// metadata the old name could resurface. Not fatal (the previous
		// snapshot is also valid state), but operators must know their
		// filesystem gives this weaker guarantee.
		dirSyncFailures.Add(1)
		Logf("snapshot: directory sync failed for %s (rename durability not guaranteed on this filesystem): %v", dir, derr)
	}
	return nil
}

// LoadFile reads a snapshot file written by SaveFile, with full integrity
// verification.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Load(f)
}
