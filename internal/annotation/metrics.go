package annotation

// IdealEdges is the reference edge set E_ideal of Definition 3.1: for every
// annotation, the exact set of tuples it is related to. In experiments it
// comes from the workload generator's ground truth; in production it would
// be (partially) supplied by domain experts.
type IdealEdges map[EdgeKey]struct{}

// QualityMetrics reports how far an annotated database diverges from the
// ideal one (Equations 1 and 2 of §3).
type QualityMetrics struct {
	// FalseNegativeRatio is D.F_N = |E_ideal − E| / |E_ideal|.
	FalseNegativeRatio float64
	// FalsePositiveRatio is D.F_P = |E − E_ideal| / |E|.
	FalsePositiveRatio float64
	// Missing counts edges in E_ideal absent from E.
	Missing int
	// Spurious counts edges in E absent from E_ideal.
	Spurious int
	// IdealEdges is |E_ideal|.
	IdealEdges int
	// ActualEdges is |E|.
	ActualEdges int
}

// Quality computes the §3 quality metrics of the store's current edge set
// against an ideal edge set, using set-difference semantics. An edge counts
// regardless of type: accepted predictions have been promoted to true
// attachments, and pending predictions are still edges of E (dotted lines).
func (s *Store) Quality(ideal IdealEdges) QualityMetrics { return s.quality(ideal, false) }

// QualityTrueOnly computes the same metrics considering only true
// attachments as E — the state of the database before Nebula's predictions
// are added, which per §3 is guaranteed to have F_P = 0.
func (s *Store) QualityTrueOnly(ideal IdealEdges) QualityMetrics { return s.quality(ideal, true) }

// quality walks E once: every edge of E outside E_ideal is spurious, and
// every edge of E_ideal not met on the walk is missing. E holds each
// (annotation, tuple) pair once, so the pairs met are |E| − spurious.
func (s *Store) quality(ideal IdealEdges, trueOnly bool) QualityMetrics {
	m := QualityMetrics{IdealEdges: len(ideal)}
	for _, atts := range s.byAnnotation {
		for _, att := range atts {
			if trueOnly && att.Type != TrueAttachment {
				continue
			}
			m.ActualEdges++
			if _, ok := ideal[att.edgeKey()]; !ok {
				m.Spurious++
			}
		}
	}
	m.Missing = m.IdealEdges - (m.ActualEdges - m.Spurious)
	if m.IdealEdges > 0 {
		m.FalseNegativeRatio = float64(m.Missing) / float64(m.IdealEdges)
	}
	if m.ActualEdges > 0 {
		m.FalsePositiveRatio = float64(m.Spurious) / float64(m.ActualEdges)
	}
	return m
}
