package verification

import (
	"encoding/binary"
	"fmt"
	"sort"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/relational"
)

// Manager routes predictions through the verification pipeline and applies
// the acceptance side effects the paper enumerates for the `Verify
// Attachment <vid>` command: (1) attach the annotation to the tuple as a
// True Attachment, (2) update the ACG, and (3) update the metadata profile
// that guides focal-based spreading. The same actions run for
// auto-accepted predictions.
type Manager struct {
	store   *annotation.Store
	graph   *acg.Graph
	profile *acg.Profile

	bounds  Bounds
	nextVID int64
	pending map[int64]*Task
}

// NewManager builds a verification manager. graph and profile may be nil if
// the deployment does not maintain them; the corresponding side effects are
// skipped.
func NewManager(store *annotation.Store, graph *acg.Graph, profile *acg.Profile, bounds Bounds) (*Manager, error) {
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	return &Manager{
		store:   store,
		graph:   graph,
		profile: profile,
		bounds:  bounds,
		pending: make(map[int64]*Task),
	}, nil
}

// Bounds returns the current thresholds.
func (m *Manager) Bounds() Bounds { return m.bounds }

// NextVID returns the VID the next submitted task will receive. The WAL
// records it with each submission so replay reproduces identical task
// identifiers.
func (m *Manager) NextVID() int64 { return m.nextVID }

// SetNextVID pins the VID counter — the replay half of NextVID. It never
// moves the counter backwards past an issued VID's successor would allow:
// callers replaying history pass the recorded FirstVID, which by
// construction is >= every VID issued before it.
func (m *Manager) SetNextVID(v int64) {
	if v > m.nextVID {
		m.nextVID = v
	}
}

// RestoreTasks reinstates a snapshot's pending expert queue and VID
// counter. The counter never moves backwards: it lands past both the
// recorded nextVID and every restored task's VID, so tasks submitted
// after a restore cannot collide with queued identifiers.
func (m *Manager) RestoreTasks(tasks []*Task, nextVID int64) {
	m.SetNextVID(nextVID)
	for _, t := range tasks {
		m.pending[t.VID] = t
		if t.VID >= m.nextVID {
			m.nextVID = t.VID + 1
		}
	}
}

// SetBounds replaces the thresholds (e.g. after a BoundsSetting run).
func (m *Manager) SetBounds(b Bounds) error {
	if err := b.Validate(); err != nil {
		return err
	}
	m.bounds = b
	return nil
}

// Outcome summarizes one Submit call.
type Outcome struct {
	// Accepted are the auto-accepted tasks (side effects applied).
	Accepted []*Task
	// Rejected are the auto-rejected tasks (discarded).
	Rejected []*Task
	// Pending are the tasks stored for expert verification.
	Pending []*Task
}

// Stage 3 runs in two steps, so that the WAL can log what the first one
// measured and replay can apply it without searching:
//
//   - measure (MeasureSubmit, MeasureVerify) computes the ACG hop distance
//     of every would-be acceptance from the annotation's focal, against
//     the graph *before* any of the batch's edges are added (§6.3's
//     profile-update protocol), and mutates nothing;
//   - apply (Submit, Verify) records those distances in the hop profile,
//     then attaches, adds the ACG edges and routes the pending tasks.
//
// Distances travel as one uvarint of d+1 per acceptance, in routing
// order, with 0 meaning the focal cannot reach the tuple. A manager built
// without a graph or profile measures nothing and ignores the distances.

// MeasureSubmit is Submit's measure step: the encoded hop distances of the
// candidates Submit would auto-accept under the current bounds.
func (m *Manager) MeasureSubmit(focal []relational.TupleID, candidates []discovery.Candidate, degraded bool) []byte {
	var hops []byte
	for _, c := range candidates {
		if m.route(c.Confidence, degraded) == AutoAccepted {
			hops = m.measure(hops, c.Tuple.ID, focal)
		}
	}
	return hops
}

// MeasureVerify is Verify's measure step: the encoded hop distance of
// pending task vid's tuple from its annotation's focal as it stands now.
// It returns nil when vid is not pending.
func (m *Manager) MeasureVerify(vid int64) []byte {
	task, ok := m.pending[vid]
	if !ok {
		return nil
	}
	return m.measure(nil, task.Tuple, m.store.Focal(task.Annotation))
}

func (m *Manager) measure(hops []byte, t relational.TupleID, focal []relational.TupleID) []byte {
	if m.graph == nil || m.profile == nil {
		return hops
	}
	d, reachable := m.graph.HopsToAny(t, focal)
	if !reachable {
		return binary.AppendUvarint(hops, 0)
	}
	return binary.AppendUvarint(hops, uint64(d)+1)
}

// recordHops checks that hops holds exactly n distances, then records them
// in the profile. It mutates nothing when the check fails.
func (m *Manager) recordHops(hops []byte, n int) error {
	if m.graph == nil || m.profile == nil {
		return nil
	}
	count := 0
	for rest := hops; len(rest) > 0; count++ {
		_, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("verification: malformed hop distances")
		}
		rest = rest[k:]
	}
	if count != n {
		return fmt.Errorf("verification: %d hop distances for %d acceptances", count, n)
	}
	for rest := hops; len(rest) > 0; {
		v, k := binary.Uvarint(rest)
		rest = rest[k:]
		m.profile.Record(int(v)-1, v > 0)
	}
	return nil
}

// route is the bounds decision for one candidate. A degraded discovery run
// — truncated by a budget, interrupted by a deadline, or forced off its
// configured search strategy — computed its confidences against an
// incomplete evidence base, so nothing is auto-accepted: candidates that
// would clear β_upper become pending expert-verification tasks instead.
// Auto-rejection below β_lower still applies — a truncated run only ever
// under-reports confidence-inflating evidence for the tuples it did
// produce.
func (m *Manager) route(confidence float64, degraded bool) Decision {
	d := m.bounds.Route(confidence)
	if degraded && d == AutoAccepted {
		return Pending
	}
	return d
}

// Submit is the apply step of routing one annotation's discovered
// candidates. Candidates above β_upper are accepted immediately; below
// β_lower they are discarded; the rest become pending tasks queryable via
// PendingTasks and resolvable with Verify/Reject; a degraded run
// auto-accepts nothing (see route). hops must be what
// MeasureSubmit returned for the same candidates; a count that does not
// match the acceptances is an error, and nothing is applied.
func (m *Manager) Submit(a annotation.ID, candidates []discovery.Candidate, degraded bool, hops []byte) (Outcome, error) {
	var out Outcome
	if _, ok := m.store.Get(a); !ok {
		return out, fmt.Errorf("verification: unknown annotation %q", a)
	}
	for i, c := range candidates {
		task := &Task{
			VID:        m.nextVID + int64(i),
			Annotation: a,
			Tuple:      c.Tuple.ID,
			Confidence: c.Confidence,
			Evidence:   append([]string(nil), c.Evidence...),
			Decision:   m.route(c.Confidence, degraded),
		}
		switch task.Decision {
		case AutoAccepted:
			out.Accepted = append(out.Accepted, task)
		case AutoRejected:
			out.Rejected = append(out.Rejected, task)
		default:
			out.Pending = append(out.Pending, task)
		}
	}
	if err := m.recordHops(hops, len(out.Accepted)); err != nil {
		return Outcome{}, err
	}
	m.nextVID += int64(len(candidates))
	for _, t := range out.Pending {
		m.pending[t.VID] = t
	}
	return out, m.attach(a, out.Accepted)
}

// Pending returns the pending task with the given VID, if any — the
// VID-keyed lookup behind `Verify/Reject Attachment <vid>`. O(1); the
// returned task is live and must not be mutated by callers.
func (m *Manager) Pending(vid int64) (*Task, bool) {
	t, ok := m.pending[vid]
	return t, ok
}

// attach applies the graph side of the acceptance side effects for a
// batch of tasks of one annotation: the true attachments and their ACG
// edges.
func (m *Manager) attach(a annotation.ID, tasks []*Task) error {
	for _, t := range tasks {
		if _, err := m.store.Attach(annotation.Attachment{
			Annotation: a,
			Tuple:      t.Tuple,
			Type:       annotation.TrueAttachment,
		}); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		if m.graph != nil {
			m.graph.AddAttachment(a, t.Tuple)
		}
	}
	return nil
}

// PendingTasks returns the stored pending tasks ordered by VID — the
// queryable system table of §7.
func (m *Manager) PendingTasks() []*Task {
	out := make([]*Task, 0, len(m.pending))
	for _, t := range m.pending {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VID < out[j].VID })
	return out
}

// PendingTasksByPriority returns the pending tasks ordered for expert
// consumption: highest confidence first (the attachments most likely to
// convert), ties broken by VID. This is the ranking-and-prioritization
// surface of the paper's contribution list — experts with limited time
// work from the top.
func (m *Manager) PendingTasksByPriority() []*Task {
	out := m.PendingTasks()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].VID < out[j].VID
	})
	return out
}

// Verify implements `Verify Attachment <vid>`: the expert accepts the
// pending task, which triggers the same side effects as auto-acceptance.
// hops must be what MeasureVerify returned for vid.
func (m *Manager) Verify(vid int64, hops []byte) error {
	task, ok := m.pending[vid]
	if !ok {
		return fmt.Errorf("verification: no pending task v%d", vid)
	}
	if err := m.recordHops(hops, 1); err != nil {
		return err
	}
	delete(m.pending, vid)
	task.Decision = ExpertAccepted
	return m.attach(task.Annotation, []*Task{task})
}

// Reject implements `Reject Attachment <vid>`: the expert discards the
// pending task.
func (m *Manager) Reject(vid int64) error {
	task, ok := m.pending[vid]
	if !ok {
		return fmt.Errorf("verification: no pending task v%d", vid)
	}
	delete(m.pending, vid)
	task.Decision = ExpertRejected
	return nil
}

// CancelTasksForTuple discards every pending task targeting the tuple —
// the referential-integrity hook for tuple deletion. Cancelled tasks are
// marked ExpertRejected (the attachment can no longer exist). It returns
// the number of cancelled tasks.
func (m *Manager) CancelTasksForTuple(tuple relational.TupleID) int {
	n := 0
	for _, t := range m.PendingTasks() {
		if t.Tuple != tuple {
			continue
		}
		delete(m.pending, t.VID)
		t.Decision = ExpertRejected
		n++
	}
	return n
}

// CancelTasksForAnnotation discards every pending task of one annotation —
// the retraction hook for change-driven re-discovery: before an annotation
// is re-discovered its undecided tasks are superseded, because their
// confidences were computed over a database state that no longer exists.
// Cancelled tasks are marked ExpertRejected. It returns the number of
// cancelled tasks.
func (m *Manager) CancelTasksForAnnotation(a annotation.ID) int {
	n := 0
	for _, t := range m.PendingTasks() {
		if t.Annotation != a {
			continue
		}
		delete(m.pending, t.VID)
		t.Decision = ExpertRejected
		n++
	}
	return n
}

// ResolveWithOracle resolves every pending task of the annotation using an
// oracle (the experiments' simulated expert), one verdict at a time: each
// acceptance is measured against the focal the verdicts before it left.
// It returns the positively and negatively verified tasks.
func (m *Manager) ResolveWithOracle(a annotation.ID, oracle Oracle) (accepted, rejected []*Task, err error) {
	for _, t := range m.PendingTasks() {
		if t.Annotation != a {
			continue
		}
		if oracle.IsRelated(a, t.Tuple) {
			if err := m.Verify(t.VID, m.MeasureVerify(t.VID)); err != nil {
				return nil, nil, err
			}
			accepted = append(accepted, t)
		} else {
			if err := m.Reject(t.VID); err != nil {
				return nil, nil, err
			}
			rejected = append(rejected, t)
		}
	}
	return accepted, rejected, nil
}
