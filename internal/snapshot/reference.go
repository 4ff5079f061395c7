package snapshot

import (
	"fmt"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// RestoreReference is Restore as it stood before the bulk loaders: one
// public mutation per row, annotation, edge and graph entry, in the
// snapshot's order, on the calling goroutine. It is kept as the oracle the
// loaders are held against — the differential tests compare every
// structure it builds, in order, with what Restore builds — and nothing
// else may call it.
func (s *Snapshot) RestoreReference() (State, error) {
	st := State{
		DB:            relational.NewDatabase(),
		Store:         annotation.NewStore(),
		Graph:         acg.New(s.Graph.Stability.BatchSize, s.Graph.Stability.Mu),
		Profile:       acg.NewProfile(),
		Tasks:         append([]TaskDump(nil), s.Tasks...),
		NextVID:       s.NextVID,
		IngestJobs:    append([]IngestJobDump(nil), s.IngestJobs...),
		IngestNextSeq: s.IngestNextSeq,
		HasBounds:     s.HasBounds,
		BoundsLower:   s.BoundsLower,
		BoundsUpper:   s.BoundsUpper,
	}
	for i := range s.Tables {
		sec := &s.Tables[i]
		t, err := st.DB.CreateTable(sec.schema())
		if err != nil {
			return State{}, fmt.Errorf("snapshot: %w", err)
		}
		cols, err := sec.columns()
		if err != nil {
			return State{}, fmt.Errorf("snapshot: %w", err)
		}
		for r := 0; r < sec.Rows; r++ {
			values := make([]relational.Value, len(cols))
			for j, c := range cols {
				switch {
				case r < len(c.Ints):
					values[j] = relational.Int(c.Ints[r])
				case r < len(c.Floats):
					values[j] = relational.Float(c.Floats[r])
				case r < len(c.Strings):
					values[j] = relational.String(c.Strings[r])
				default:
					return State{}, fmt.Errorf("snapshot: table %s: column %d has no cell for row %d", sec.Name, j, r)
				}
			}
			if _, err := t.Insert(values); err != nil {
				return State{}, fmt.Errorf("snapshot: %w", err)
			}
		}
	}
	if err := st.DB.ValidateForeignKeys(); err != nil {
		return State{}, fmt.Errorf("snapshot: %w", err)
	}

	anns, atts, err := s.Annotations.unpack()
	if err != nil {
		return State{}, fmt.Errorf("snapshot: %w", err)
	}
	for i := range anns {
		if err := st.Store.Add(&anns[i]); err != nil {
			return State{}, fmt.Errorf("snapshot: %w", err)
		}
	}
	for _, att := range atts {
		if _, err := st.Store.Attach(att); err != nil {
			return State{}, fmt.Errorf("snapshot: %w", err)
		}
	}

	lists, err := s.Graph.Attachments.unpack()
	if err != nil {
		return State{}, fmt.Errorf("snapshot: %w", err)
	}
	for _, l := range lists {
		st.Graph.AddAnnotation(l.ID, l.Tuples)
	}
	s.Graph.Stability.restore(st.Graph)
	st.Profile.RestoreCounts(s.ProfileBuckets, s.ProfileUnreachable)
	if st.ManualFocal, err = s.ManualFocal.unpack(); err != nil {
		return State{}, fmt.Errorf("snapshot: %w", err)
	}
	return st, nil
}
