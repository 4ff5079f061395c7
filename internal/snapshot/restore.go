package snapshot

import (
	"fmt"
	"io"
	"sync"
	"time"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// RestoreStats accounts one restore: what was read and rebuilt, on how many
// workers, and how long each stage took on the wall clock. Verify, decode
// and build run one after the other, so with the read they add up to Total.
type RestoreStats struct {
	Bytes       int64 `json:"bytes"`
	Sections    int   `json:"sections"`
	Rows        int   `json:"rows"`
	Annotations int   `json:"annotations"`
	Attachments int   `json:"attachments"`
	Workers     int   `json:"workers"`

	VerifySeconds float64 `json:"verify_seconds"`
	DecodeSeconds float64 `json:"decode_seconds"`
	BuildSeconds  float64 `json:"build_seconds"`
	TotalSeconds  float64 `json:"total_seconds"`
}

type stage struct {
	into  *float64
	since time.Time
}

func startStage(into *float64) stage { return stage{into, time.Now()} }
func (s stage) stop()                { *s.into += time.Since(s.since).Seconds() }

// group runs tasks on at most workers goroutines at a time. A running task
// may add further tasks. wait returns once all of them are done; of the
// tasks that failed it reports the one with the lowest order, so the
// outcome does not depend on scheduling.
type group struct {
	slots chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
	order int
}

func newGroup(workers int) *group {
	if workers < 1 {
		workers = 1
	}
	return &group{slots: make(chan struct{}, workers)}
}

func (g *group) run(order int, task func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.slots <- struct{}{}
		defer func() { <-g.slots }()
		if err := task(); err != nil {
			g.mu.Lock()
			if g.err == nil || order < g.order {
				g.err, g.order = err, order
			}
			g.mu.Unlock()
		}
	}()
}

func (g *group) wait() error {
	g.wg.Wait()
	return g.err
}

// RestoreFrom is the restart path: it reads a snapshot stream, verifies and
// decodes its sections and rebuilds the live state, each stage on up to
// workers goroutines. The Meta it returns is the snapshot's small state,
// which the engine adopts itself.
func RestoreFrom(r io.Reader, workers int) (State, Meta, RestoreStats, error) {
	begin := time.Now()
	s, stats, err := load(r, workers)
	if err != nil {
		return State{}, Meta{}, stats, err
	}
	stats.Workers = workers
	stage := startStage(&stats.BuildSeconds)
	st, err := s.Restore(workers)
	stage.stop()
	if err != nil {
		return State{}, Meta{}, stats, err
	}
	stats.Rows = st.DB.TotalRows()
	stats.Annotations = st.Store.Len()
	stats.Attachments = st.Store.EdgeCount()
	stats.TotalSeconds = time.Since(begin).Seconds()
	return st, s.Meta, stats, nil
}

// Restore rebuilds live objects from the snapshot on up to workers
// goroutines. Tables, annotation store and ACG do not depend on each other,
// and inside a table neither do the indexes of different columns, so each
// is one task; every task fills its structure in the snapshot's own order,
// which makes the result the same as inserting everything one by one,
// whatever the worker count (RestoreReference is that one-by-one restore).
func (s *Snapshot) Restore(workers int) (State, error) {
	st := State{
		DB:            relational.NewDatabase(),
		Profile:       acg.NewProfile(),
		Tasks:         append([]TaskDump(nil), s.Tasks...),
		NextVID:       s.NextVID,
		IngestJobs:    append([]IngestJobDump(nil), s.IngestJobs...),
		IngestNextSeq: s.IngestNextSeq,
		HasBounds:     s.HasBounds,
		BoundsLower:   s.BoundsLower,
		BoundsUpper:   s.BoundsUpper,
	}
	st.Profile.RestoreCounts(s.ProfileBuckets, s.ProfileUnreachable)

	// A table's task builds its rows and then adds one task per index;
	// tables go first so that those are on the list early.
	tables := make([]*relational.Table, len(s.Tables))
	g := newGroup(workers)
	for i := range s.Tables {
		g.run(i, func() error {
			t, fills, err := s.Tables[i].load()
			for _, fill := range fills {
				g.run(i, func() error { fill(); return nil })
			}
			tables[i] = t
			return err
		})
	}
	after := len(s.Tables)
	g.run(after, func() (err error) { st.Graph, err = s.Graph.load(); return err })
	g.run(after+1, func() (err error) { st.Store, err = s.Annotations.load(); return err })
	g.run(after+2, func() (err error) { st.ManualFocal, err = s.ManualFocal.unpack(); return err })
	if err := g.wait(); err != nil {
		return State{}, fmt.Errorf("snapshot: %w", err)
	}
	for _, t := range tables {
		if err := st.DB.AddTable(t); err != nil {
			return State{}, fmt.Errorf("snapshot: %w", err)
		}
	}
	if err := st.DB.ValidateForeignKeys(); err != nil {
		return State{}, fmt.Errorf("snapshot: %w", err)
	}
	return st, nil
}

func (sec *tableSection) schema() *relational.Schema {
	schema := &relational.Schema{Name: sec.Name, PrimaryKey: sec.PrimaryKey}
	for _, c := range sec.Columns {
		schema.Columns = append(schema.Columns, relational.Column{
			Name: c.Name, Type: relational.Type(c.Type), Indexed: c.Indexed, FullText: c.FullText,
		})
	}
	for _, fk := range sec.ForeignKeys {
		schema.ForeignKeys = append(schema.ForeignKeys, relational.ForeignKey{
			Column: fk.Column, RefTable: fk.RefTable, RefColumn: fk.RefColumn,
		})
	}
	return schema
}

// columns unpacks the section's cells into the loader's input. A section
// with more or fewer cell columns than schema columns, or a column whose
// cells do not match its type or the row count, is refused by LoadTable.
func (sec *tableSection) columns() ([]relational.ColumnData, error) {
	cols := make([]relational.ColumnData, len(sec.Cells))
	for j, c := range sec.Cells {
		strs, err := c.Strings.unpack()
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", sec.Name, err)
		}
		cols[j] = relational.ColumnData{Strings: strs, Ints: c.Ints, Floats: c.Floats}
	}
	return cols, nil
}

func (sec *tableSection) load() (*relational.Table, []func(), error) {
	cols, err := sec.columns()
	if err != nil {
		return nil, nil, err
	}
	return relational.LoadTable(sec.schema(), cols, sec.Rows)
}

// unpack turns the section's columns into the annotations and attachment
// edges they describe, in order.
func (sec *annotationSection) unpack() ([]annotation.Annotation, []annotation.Attachment, error) {
	var cols [5][]string
	for i, p := range []packedStrings{sec.IDs, sec.Authors, sec.Bodies, sec.Kinds, sec.Columns} {
		var err error
		if cols[i], err = p.unpack(); err != nil {
			return nil, nil, err
		}
	}
	ids, authors, bodies, kinds, columns := cols[0], cols[1], cols[2], cols[3], cols[4]
	if len(authors) != len(ids) || len(bodies) != len(ids) || len(kinds) != len(ids) {
		return nil, nil, fmt.Errorf("%w: annotation columns of %d, %d, %d and %d entries",
			ErrCorrupt, len(ids), len(authors), len(bodies), len(kinds))
	}
	tuples, err := sec.Tuples.unpack()
	if err != nil {
		return nil, nil, err
	}
	n := len(tuples)
	if len(sec.Annotation) != n || len(columns) != n || len(sec.Types) != n || len(sec.Confidences) != n {
		return nil, nil, fmt.Errorf("%w: attachment columns of %d, %d, %d, %d and %d entries",
			ErrCorrupt, n, len(sec.Annotation), len(columns), len(sec.Types), len(sec.Confidences))
	}
	anns := make([]annotation.Annotation, len(ids))
	for i := range anns {
		anns[i] = annotation.Annotation{ID: annotation.ID(ids[i]), Author: authors[i], Body: bodies[i], Kind: kinds[i]}
	}
	atts := make([]annotation.Attachment, n)
	for i := range atts {
		ai := sec.Annotation[i]
		if ai >= uint64(len(anns)) {
			return nil, nil, fmt.Errorf("%w: attachment %d names annotation %d of %d", ErrCorrupt, i, ai, len(anns))
		}
		atts[i] = annotation.Attachment{
			Annotation: anns[ai].ID,
			Tuple:      tuples[i],
			Column:     columns[i],
			Type:       annotation.AttachmentType(sec.Types[i]),
			Confidence: sec.Confidences[i],
		}
	}
	return anns, atts, nil
}

func (sec *annotationSection) load() (*annotation.Store, error) {
	anns, atts, err := sec.unpack()
	if err != nil {
		return nil, err
	}
	return annotation.LoadStore(anns, atts)
}

func (sec *graphSection) load() (*acg.Graph, error) {
	lists, err := sec.Attachments.unpack()
	if err != nil {
		return nil, err
	}
	g, err := acg.Load(sec.Stability.BatchSize, sec.Stability.Mu, lists)
	if err != nil {
		return nil, err
	}
	sec.Stability.restore(g)
	return g, nil
}

func (d stabilityDump) restore(g *acg.Graph) {
	g.RestoreStabilityState(d.BatchSize, d.Mu, d.BatchAnnotations,
		d.BatchAttachments, d.BatchEdges, d.BatchesClosed, d.Stable)
}
