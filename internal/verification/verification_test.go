package verification

import (
	"fmt"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/relational"
)

func tup(i int) relational.TupleID {
	return relational.TupleID{Table: "Gene", Key: fmt.Sprintf("s:jw%04d", i)}
}

// cand fabricates a discovery candidate with a synthetic row carrying the
// right TupleID.
func cand(t *testing.T, db *relational.Database, i int, conf float64) discovery.Candidate {
	t.Helper()
	row, ok := db.Lookup(tup(i))
	if !ok {
		t.Fatalf("no tuple %d in fixture db", i)
	}
	return discovery.Candidate{Tuple: row, Confidence: conf, Evidence: []string{"q1"}}
}

func fixtureDB(t testing.TB, n int) *relational.Database {
	t.Helper()
	db := relational.NewDatabase()
	gt, err := db.CreateTable(&relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString},
		},
		PrimaryKey: "GID",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := gt.Insert([]relational.Value{relational.String(fmt.Sprintf("JW%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// submit runs Submit's two steps back to back, as the engine does live.
func submit(m *Manager, a annotation.ID, degraded bool, focal []relational.TupleID, candidates []discovery.Candidate) (Outcome, error) {
	return m.Submit(a, candidates, degraded, m.MeasureSubmit(focal, candidates, degraded))
}

func TestBoundsRoute(t *testing.T) {
	b := Bounds{Lower: 0.32, Upper: 0.86}
	if b.Route(0.1) != AutoRejected {
		t.Error("below lower should reject")
	}
	if b.Route(0.5) != Pending {
		t.Error("between bounds should be pending")
	}
	if b.Route(0.9) != AutoAccepted {
		t.Error("above upper should accept")
	}
	// Boundary values stay pending (β_lower ≤ conf ≤ β_upper).
	if b.Route(0.32) != Pending || b.Route(0.86) != Pending {
		t.Error("boundary confidences should be pending")
	}
}

func TestBoundsValidate(t *testing.T) {
	for _, bad := range []Bounds{{Lower: -0.1, Upper: 0.5}, {Lower: 0.6, Upper: 0.5}, {Lower: 0, Upper: 1.1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bounds %+v should be invalid", bad)
		}
	}
	if err := (Bounds{Lower: 0.3, Upper: 0.9}).Validate(); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
}

func managerFixture(t *testing.T) (*relational.Database, *annotation.Store, *acg.Graph, *acg.Profile, *Manager) {
	t.Helper()
	db := fixtureDB(t, 20)
	store := annotation.NewStore()
	if err := store.Add(&annotation.Annotation{ID: "a1", Body: "test"}); err != nil {
		t.Fatal(err)
	}
	graph := acg.New(0, 0)
	// Pre-existing structure: focal tuple 0 connected to 1.
	graph.AddAnnotation("seed", []relational.TupleID{tup(0), tup(1)})
	profile := acg.NewProfile()
	m, err := NewManager(store, graph, profile, Bounds{Lower: 0.32, Upper: 0.86})
	if err != nil {
		t.Fatal(err)
	}
	// The annotation's focal: tuple 0.
	if _, err := store.Attach(annotation.Attachment{Annotation: "a1", Tuple: tup(0), Type: annotation.TrueAttachment}); err != nil {
		t.Fatal(err)
	}
	return db, store, graph, profile, m
}

func TestSubmitRouting(t *testing.T) {
	db, store, graph, profile, m := managerFixture(t)
	focal := []relational.TupleID{tup(0)}
	out, err := submit(m, "a1", false, focal, []discovery.Candidate{
		cand(t, db, 1, 0.95), // auto-accept
		cand(t, db, 2, 0.5),  // pending
		cand(t, db, 3, 0.1),  // auto-reject
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Accepted) != 1 || len(out.Pending) != 1 || len(out.Rejected) != 1 {
		t.Fatalf("routing: %+v", out)
	}
	// Acceptance side effects: attachment, ACG edge, profile record.
	edge, ok := store.Edge("a1", tup(1))
	if !ok || edge.Type != annotation.TrueAttachment {
		t.Error("accepted prediction not attached as true")
	}
	if graph.Weight(tup(0), tup(1)) == 0 {
		t.Error("ACG not updated")
	}
	if profile.Total() != 1 {
		t.Errorf("profile records = %d", profile.Total())
	}
	// The accepted tuple was 1 hop from the focal before the update.
	if profile.Bucket(1) != 1 {
		t.Errorf("hop bucket: %d", profile.Bucket(1))
	}
	// Rejected and pending have no attachment.
	if _, ok := store.Edge("a1", tup(2)); ok {
		t.Error("pending candidate attached prematurely")
	}
	if _, ok := store.Edge("a1", tup(3)); ok {
		t.Error("rejected candidate attached")
	}
}

func TestSubmitDegradedRoutesAcceptsToPending(t *testing.T) {
	db, store, _, _, m := managerFixture(t)
	focal := []relational.TupleID{tup(0)}
	out, err := submit(m, "a1", true, focal, []discovery.Candidate{
		cand(t, db, 1, 0.95), // would auto-accept; must go pending
		cand(t, db, 2, 0.5),  // pending either way
		cand(t, db, 3, 0.1),  // auto-reject still applies
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Accepted) != 0 {
		t.Fatalf("degraded submission auto-accepted: %+v", out)
	}
	if len(out.Pending) != 2 || len(out.Rejected) != 1 {
		t.Fatalf("routing: %+v", out)
	}
	// No acceptance side effects ran.
	if _, ok := store.Edge("a1", tup(1)); ok {
		t.Error("degraded candidate attached without expert review")
	}
	// The rerouted task keeps its confidence and is expert-resolvable.
	top := out.Pending[0]
	if top.Confidence != 0.95 {
		t.Errorf("confidence lost in rerouting: %f", top.Confidence)
	}
	if err := m.Verify(top.VID, m.MeasureVerify(top.VID)); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Edge("a1", tup(1)); !ok {
		t.Error("expert verification of rerouted task did not attach")
	}
}

func TestPendingLookupByVID(t *testing.T) {
	db, _, _, _, m := managerFixture(t)
	out, err := submit(m, "a1", false, []relational.TupleID{tup(0)}, []discovery.Candidate{
		cand(t, db, 2, 0.5),
		cand(t, db, 3, 0.6),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range out.Pending {
		got, ok := m.Pending(want.VID)
		if !ok || got != want {
			t.Errorf("Pending(%d) = %v, %v", want.VID, got, ok)
		}
	}
	if _, ok := m.Pending(99999); ok {
		t.Error("unknown VID resolved")
	}
	// Resolved tasks leave the index.
	vid := out.Pending[0].VID
	if err := m.Reject(vid); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Pending(vid); ok {
		t.Error("rejected task still pending")
	}
}

func TestSubmitUnknownAnnotation(t *testing.T) {
	db, _, _, _, m := managerFixture(t)
	if _, err := submit(m, "nope", false, nil, []discovery.Candidate{cand(t, db, 1, 0.9)}); err == nil {
		t.Error("unknown annotation should fail")
	}
}

func TestVerifyAndRejectCommands(t *testing.T) {
	db, store, _, _, m := managerFixture(t)
	focal := []relational.TupleID{tup(0)}
	out, err := submit(m, "a1", false, focal, []discovery.Candidate{
		cand(t, db, 2, 0.5),
		cand(t, db, 3, 0.6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PendingTasks()) != 2 {
		t.Fatalf("pending = %d", len(m.PendingTasks()))
	}
	vid := out.Pending[0].VID
	if err := m.Verify(vid, m.MeasureVerify(vid)); err != nil {
		t.Fatal(err)
	}
	if out.Pending[0].Decision != ExpertAccepted {
		t.Error("decision not updated")
	}
	if _, ok := store.Edge("a1", out.Pending[0].Tuple); !ok {
		t.Error("verified attachment missing")
	}
	if err := m.Verify(vid, m.MeasureVerify(vid)); err == nil {
		t.Error("double verify should fail")
	}
	vid2 := out.Pending[1].VID
	if err := m.Reject(vid2); err != nil {
		t.Fatal(err)
	}
	if out.Pending[1].Decision != ExpertRejected {
		t.Error("reject decision not updated")
	}
	if err := m.Reject(vid2); err == nil {
		t.Error("double reject should fail")
	}
	if len(m.PendingTasks()) != 0 {
		t.Error("pending table not drained")
	}
}

func TestResolveWithOracle(t *testing.T) {
	db, store, _, _, m := managerFixture(t)
	focal := []relational.TupleID{tup(0)}
	_, err := submit(m, "a1", false, focal, []discovery.Candidate{
		cand(t, db, 2, 0.5),
		cand(t, db, 3, 0.6),
		cand(t, db, 4, 0.7),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewIdealTupleOracle("a1", []relational.TupleID{tup(0), tup(2), tup(4)})
	acc, rej, err := m.ResolveWithOracle("a1", oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc) != 2 || len(rej) != 1 {
		t.Fatalf("accepted=%d rejected=%d", len(acc), len(rej))
	}
	if _, ok := store.Edge("a1", tup(2)); !ok {
		t.Error("oracle-accepted edge missing")
	}
	if _, ok := store.Edge("a1", tup(3)); ok {
		t.Error("oracle-rejected edge present")
	}
}

func TestAssess(t *testing.T) {
	db := fixtureDB(t, 20)
	// Ideal: focal tup(0) plus tuples 1..4 (N_ideal = 5, N_focal = 1).
	oracle := NewIdealTupleOracle("a1", []relational.TupleID{tup(0), tup(1), tup(2), tup(3), tup(4)})
	bounds := Bounds{Lower: 0.32, Upper: 0.86}
	candidates := []discovery.Candidate{
		cand(t, db, 1, 0.95), // accept, true  -> N_accept-T
		cand(t, db, 9, 0.90), // accept, false -> N_accept-F
		cand(t, db, 2, 0.50), // verify, true  -> N_verify-T
		cand(t, db, 8, 0.40), // verify, false -> N_verify-F
		cand(t, db, 3, 0.10), // reject (true edge lost -> F_N)
	}
	a := Assess("a1", candidates, bounds, oracle, 5, 1)
	if a.NAcceptT != 1 || a.NAcceptF != 1 || a.NVerifyT != 1 || a.NVerifyF != 1 || a.NReject != 1 {
		t.Fatalf("counters: %+v", a)
	}
	// F_N = (5 - (1+1+1))/5 = 0.4
	if a.FN != 0.4 {
		t.Errorf("FN = %f", a.FN)
	}
	// F_P = 1 / (1 + 2 + 1) = 0.25
	if a.FP != 0.25 {
		t.Errorf("FP = %f", a.FP)
	}
	if a.MF != 2 || a.MH != 0.5 {
		t.Errorf("MF=%f MH=%f", a.MF, a.MH)
	}
}

func TestAssessClampsAndZeroDenominators(t *testing.T) {
	a := Assess("a1", nil, Bounds{Lower: 0.3, Upper: 0.9}, NewIdealTupleOracle("a1", nil), 0, 0)
	if a.FN != 0 || a.FP != 0 || a.MF != 0 || a.MH != 0 {
		t.Errorf("empty assess: %+v", a)
	}
}

func TestAverage(t *testing.T) {
	avg := Average([]Assessment{
		{FN: 0.2, FP: 0.0, MF: 10, MH: 1.0},
		{FN: 0.4, FP: 0.2, MF: 20, MH: 0.5},
	})
	approx := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if !approx(avg.FN, 0.3) || !approx(avg.FP, 0.1) || avg.MF != 15 || avg.MH != 0.75 {
		t.Errorf("avg = %+v", avg)
	}
	if z := Average(nil); z.FN != 0 {
		t.Error("empty average should be zero")
	}
}

func TestBoundsSetting(t *testing.T) {
	db := fixtureDB(t, 30)
	// Training annotations: each related to 4 tuples. Discovery returns
	// true candidates with high confidence and noise with low confidence —
	// a separable distribution the grid search can exploit.
	var training []TrainingExample
	for i := 0; i < 5; i++ {
		a := &annotation.Annotation{ID: annotation.ID(fmt.Sprintf("t%d", i)), Body: "training"}
		ideal := []relational.TupleID{tup(i), tup(i + 5), tup(i + 10), tup(i + 15)}
		training = append(training, TrainingExample{Annotation: a, Ideal: ideal})
	}
	discover := func(a *annotation.Annotation, focal []relational.TupleID) ([]discovery.Candidate, error) {
		// Recover the index from the ID.
		var i int
		fmt.Sscanf(string(a.ID), "t%d", &i)
		return []discovery.Candidate{
			cand(t, db, i+5, 0.9),   // hidden true attachment, high conf
			cand(t, db, i+10, 0.75), // hidden true attachment, mid conf
			cand(t, db, i+15, 0.7),  // hidden true attachment, mid conf
			cand(t, db, i+20, 0.2),  // noise, low conf
		}, nil
	}
	bounds, evals, err := BoundsSetting(training, discover, DefaultBoundsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) == 0 {
		t.Fatal("no evaluations")
	}
	if err := bounds.Validate(); err != nil {
		t.Fatalf("invalid bounds: %v", err)
	}
	// The separable distribution admits fully automatic bounds: noise at
	// 0.2 rejected, everything real accepted. Expect low expert effort.
	var chosen *BoundsEvaluation
	for i := range evals {
		if evals[i].Bounds == bounds {
			chosen = &evals[i]
		}
	}
	if chosen == nil {
		t.Fatal("chosen bounds missing from evaluations")
	}
	if !chosen.Feasible {
		t.Errorf("chosen bounds infeasible: %+v", chosen)
	}
	if chosen.Assessment.MF > 1 {
		t.Errorf("expert effort not minimized: %+v", chosen.Assessment)
	}
	if chosen.Assessment.FN > 0.25 || chosen.Assessment.FP > 0.25 {
		t.Errorf("quality ceilings violated: %+v", chosen.Assessment)
	}
}

func TestBoundsSettingErrors(t *testing.T) {
	discover := func(a *annotation.Annotation, focal []relational.TupleID) ([]discovery.Candidate, error) {
		return nil, nil
	}
	if _, _, err := BoundsSetting(nil, discover, DefaultBoundsConfig()); err == nil {
		t.Error("empty training should fail")
	}
	tr := []TrainingExample{{Annotation: &annotation.Annotation{ID: "x"}, Ideal: []relational.TupleID{tup(0)}}}
	cfg := DefaultBoundsConfig()
	cfg.Distortion = 0
	if _, _, err := BoundsSetting(tr, discover, cfg); err == nil {
		t.Error("zero distortion should fail")
	}
	cfg = DefaultBoundsConfig()
	cfg.Grid = nil
	if _, _, err := BoundsSetting(tr, discover, cfg); err == nil {
		t.Error("empty grid should fail")
	}
	// Discover errors propagate.
	bad := func(a *annotation.Annotation, focal []relational.TupleID) ([]discovery.Candidate, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, _, err := BoundsSetting(tr, bad, DefaultBoundsConfig()); err == nil {
		t.Error("discover error should propagate")
	}
}

func TestDegenerateBoundsNoExperts(t *testing.T) {
	// β_lower = β_upper = 0.5: every prediction is decided automatically
	// (M_F = 0), reproducing the Figure 15(b) configuration.
	db := fixtureDB(t, 10)
	oracle := NewIdealTupleOracle("a1", []relational.TupleID{tup(0), tup(1)})
	b := Bounds{Lower: 0.5, Upper: 0.5}
	a := Assess("a1", []discovery.Candidate{
		cand(t, db, 1, 0.9), // accepted, true
		cand(t, db, 2, 0.8), // accepted, false -> F_P > 0
		cand(t, db, 3, 0.2), // rejected
	}, b, oracle, 2, 1)
	if a.MF != 0 {
		t.Errorf("no-expert config has MF = %f", a.MF)
	}
	if a.FP == 0 {
		t.Error("expected false positives without expert screening")
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Pending: "pending", AutoAccepted: "auto-accepted", AutoRejected: "auto-rejected",
		ExpertAccepted: "expert-accepted", ExpertRejected: "expert-rejected",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
	task := Task{VID: 7, Annotation: "a1", Tuple: tup(1), Confidence: 0.5}
	if task.String() == "" {
		t.Error("Task.String empty")
	}
}

func TestManagerSetBounds(t *testing.T) {
	_, _, _, _, m := managerFixture(t)
	if err := m.SetBounds(Bounds{Lower: 0.9, Upper: 0.1}); err == nil {
		t.Error("invalid bounds accepted")
	}
	if err := m.SetBounds(Bounds{Lower: 0.2, Upper: 0.8}); err != nil {
		t.Fatal(err)
	}
	if m.Bounds().Lower != 0.2 {
		t.Error("bounds not updated")
	}
	if _, err := NewManager(annotation.NewStore(), nil, nil, Bounds{Lower: 1, Upper: 0}); err == nil {
		t.Error("NewManager accepted invalid bounds")
	}
}

func TestPendingTasksByPriority(t *testing.T) {
	db, _, _, _, m := managerFixture(t)
	focal := []relational.TupleID{tup(0)}
	_, err := submit(m, "a1", false, focal, []discovery.Candidate{
		cand(t, db, 2, 0.40),
		cand(t, db, 3, 0.80),
		cand(t, db, 4, 0.60),
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := m.PendingTasksByPriority()
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[0].Confidence != 0.80 || tasks[1].Confidence != 0.60 || tasks[2].Confidence != 0.40 {
		t.Errorf("not priority ordered: %v %v %v",
			tasks[0].Confidence, tasks[1].Confidence, tasks[2].Confidence)
	}
}

// TestWALLoggedHopsApplyAsMeasured pins the measure/apply split the WAL
// relies on: distances measured on one manager and applied to another
// whose graph would measure differently leave the same profile, so apply
// never searches; and distances that do not match the acceptances are an
// error that applies nothing.
func TestWALLoggedHopsApplyAsMeasured(t *testing.T) {
	db, _, graph, live, m := managerFixture(t)
	graph.AddAnnotation("seed2", []relational.TupleID{tup(1), tup(2)})
	focal := []relational.TupleID{tup(0)}
	cands := []discovery.Candidate{
		cand(t, db, 1, 0.95), // 1 hop
		cand(t, db, 2, 0.50), // pending; 1 hop from tup(1) once that joins the focal
		cand(t, db, 5, 0.90), // unreachable
	}
	hops := m.MeasureSubmit(focal, cands, false)
	out, err := m.Submit("a1", cands, false, hops)
	if err != nil {
		t.Fatal(err)
	}
	vid := out.Pending[0].VID
	verifyHops := m.MeasureVerify(vid)
	if err := m.Verify(vid, verifyHops); err != nil {
		t.Fatal(err)
	}

	// The replica's ACG holds no edges at all: searching it would find
	// every tuple unreachable.
	_, _, _, replayed, r := managerFixture(t)
	r.graph = acg.New(0, 0)
	if _, err := r.Submit("a1", cands, false, hops[:1]); err == nil {
		t.Fatal("Submit accepted one distance for two acceptances")
	}
	if _, err := r.Submit("a1", cands, false, []byte{0x80}); err == nil {
		t.Fatal("Submit accepted a malformed distance")
	}
	if replayed.Total() != 0 || r.NextVID() != 0 || len(r.PendingTasks()) != 0 {
		t.Fatalf("a refused Submit applied state: profile %d, next VID %d, %d pending",
			replayed.Total(), r.NextVID(), len(r.PendingTasks()))
	}
	if _, err := r.Submit("a1", cands, false, hops); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(vid, nil); err == nil {
		t.Fatal("Verify accepted no distance for one acceptance")
	}
	if _, ok := r.Pending(vid); !ok {
		t.Fatal("a refused Verify resolved its task")
	}
	if err := r.Verify(vid, verifyHops); err != nil {
		t.Fatal(err)
	}
	wantB, wantU := live.Counts()
	gotB, gotU := replayed.Counts()
	if fmt.Sprint(gotB, gotU) != fmt.Sprint(wantB, wantU) {
		t.Fatalf("applied profile %v/%d, measured %v/%d", gotB, gotU, wantB, wantU)
	}
	if fmt.Sprint(wantB, wantU) != "[0 2] 1" {
		t.Fatalf("fixture measured %v/%d, want two tuples at 1 hop and one unreachable", wantB, wantU)
	}
}
