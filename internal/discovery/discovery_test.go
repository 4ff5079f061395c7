package discovery

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/relational"
)

// fixture builds a gene table with 20 genes, metadata, and an ACG where
// genes 0..4 form a connected cluster around gene 0.
func fixture(t testing.TB) (*relational.Database, *meta.Repository, *acg.Graph) {
	t.Helper()
	db := relational.NewDatabase()
	gene := &relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString, Indexed: true},
			{Name: "Name", Type: relational.TypeString, Indexed: true},
		},
		PrimaryKey: "GID",
	}
	gt, err := db.CreateTable(gene)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := gt.Insert([]relational.Value{
			relational.String(fmt.Sprintf("JW%04d", i)),
			relational.String(fmt.Sprintf("gen%c", 'A'+i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	repo := meta.NewRepository(db, nil)
	if err := repo.AddConcept(&meta.Concept{
		Name: "Gene", Table: "Gene", ReferencedBy: [][]string{{"GID"}, {"Name"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := repo.SetPattern(meta.ColumnRef{Table: "Gene", Column: "GID"}, `JW[0-9]{4}`); err != nil {
		t.Fatal(err)
	}
	g := acg.New(0, 0)
	// Chain 0-1-2-3-4 in the ACG.
	for i := 0; i < 4; i++ {
		g.AddAnnotation(annotation.ID(fmt.Sprintf("link%d", i)), []relational.TupleID{gid(i), gid(i + 1)})
	}
	return db, repo, g
}

func gid(i int) relational.TupleID {
	return relational.TupleID{Table: "Gene", Key: fmt.Sprintf("s:jw%04d", i)}
}

func queries(ids ...string) []keyword.Query {
	out := make([]keyword.Query, len(ids))
	for i, id := range ids {
		out[i] = keyword.Query{
			ID:     fmt.Sprintf("q%d", i+1),
			Weight: 1,
			Keywords: []keyword.Keyword{
				{Text: "gene", Role: keyword.RoleTable, TargetTable: "Gene", Weight: 1},
				{Text: id, Role: keyword.RoleValue, TargetTable: "Gene", TargetColumn: "GID", Weight: 0.9},
			},
		}
	}
	return out
}

func TestIdentifyBasic(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	cands, stats, err := d.IdentifyRelatedTuples(queries("JW0002", "JW0007"), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	if stats.SearchedDB != db.TotalRows() {
		t.Errorf("searched %d, want full DB %d", stats.SearchedDB, db.TotalRows())
	}
	for _, c := range cands {
		if c.Confidence <= 0 || c.Confidence > 1 {
			t.Errorf("confidence = %f", c.Confidence)
		}
		if len(c.Evidence) == 0 {
			t.Error("missing evidence")
		}
	}
}

func TestIdentifyEmptyQueries(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	cands, _, err := d.IdentifyRelatedTuples(nil, nil, Options{})
	if err != nil || cands != nil {
		t.Errorf("empty queries: %v %v", cands, err)
	}
}

func TestIdentifyExcludesFocal(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	cands, _, err := d.IdentifyRelatedTuples(queries("JW0002"), []relational.TupleID{gid(2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("focal tuple not excluded: %v", cands)
	}
}

func TestIdentifyMultiQueryReward(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	// JW0002 appears in two queries, JW0007 in one: the duplicated tuple
	// must rank first after normalization (conf 1.0).
	qs := queries("JW0002", "JW0007", "JW0002")
	cands, _, err := d.IdentifyRelatedTuples(qs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0].Tuple.MustGet("GID").Str() != "JW0002" || cands[0].Confidence != 1 {
		t.Errorf("rewarded tuple not first: %+v", cands[0])
	}
	if cands[1].Confidence >= cands[0].Confidence {
		t.Error("single-query tuple should rank below")
	}
	if len(cands[0].Evidence) != 2 {
		t.Errorf("evidence = %v", cands[0].Evidence)
	}
}

func TestFocalAdjustmentBoostsConnectedTuples(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	focal := []relational.TupleID{gid(0)}
	// JW0001 is a direct ACG neighbor of the focal; JW0007 is unrelated.
	qs := queries("JW0001", "JW0007")

	base, _, err := d.IdentifyRelatedTuples(qs, focal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adj, _, err := d.IdentifyRelatedTuples(qs, focal, Options{FocalAdjustment: true})
	if err != nil {
		t.Fatal(err)
	}
	baseConf := map[string]float64{}
	for _, c := range base {
		baseConf[c.Tuple.MustGet("GID").Str()] = c.Confidence
	}
	adjConf := map[string]float64{}
	for _, c := range adj {
		adjConf[c.Tuple.MustGet("GID").Str()] = c.Confidence
	}
	// Without adjustment both have equal confidence; with it, the
	// ACG-connected tuple stays at 1 and the unrelated one drops.
	if baseConf["JW0001"] != baseConf["JW0007"] {
		t.Fatalf("baseline should tie: %v", baseConf)
	}
	if adjConf["JW0001"] != 1 {
		t.Errorf("connected tuple conf = %f", adjConf["JW0001"])
	}
	if adjConf["JW0007"] >= adjConf["JW0001"] {
		t.Errorf("unconnected tuple not demoted: %v", adjConf)
	}
}

func TestMultiHopFocalAdjustment(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	focal := []relational.TupleID{gid(0)}
	// JW0002 is 2 ACG hops from the focal (0-1-2), JW0007 is disconnected.
	qs := queries("JW0002", "JW0007")

	direct, _, err := d.IdentifyRelatedTuples(qs, focal, Options{FocalAdjustment: true})
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := d.IdentifyRelatedTuples(qs, focal, Options{FocalAdjustment: true, AdjustmentHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	conf := func(cands []Candidate, id string) float64 {
		for _, c := range cands {
			if c.Tuple.MustGet("GID").Str() == id {
				return c.Confidence
			}
		}
		t.Fatalf("candidate %s missing", id)
		return 0
	}
	// Direct-only adjustment cannot distinguish a 2-hop neighbor from a
	// disconnected tuple; the multi-hop extension can.
	if conf(direct, "JW0002") != conf(direct, "JW0007") {
		t.Errorf("direct adjustment should tie: %f vs %f",
			conf(direct, "JW0002"), conf(direct, "JW0007"))
	}
	if conf(multi, "JW0002") <= conf(multi, "JW0007") {
		t.Errorf("multi-hop adjustment should separate: %f vs %f",
			conf(multi, "JW0002"), conf(multi, "JW0007"))
	}
}

func TestSpreadingRestrictsSearch(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	focal := []relational.TupleID{gid(0)}
	qs := queries("JW0001", "JW0004", "JW0007")

	cands, stats, err := d.IdentifyRelatedTuples(qs, focal, Options{Spreading: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MiniDBUsed {
		t.Fatal("miniDB not used")
	}
	// K=2 neighborhood of gene 0 = {0,1,2}: searched DB is 3 tuples.
	if stats.SearchedDB != 3 {
		t.Errorf("searched = %d, want 3", stats.SearchedDB)
	}
	got := map[string]bool{}
	for _, c := range cands {
		got[c.Tuple.MustGet("GID").Str()] = true
	}
	if !got["JW0001"] {
		t.Error("in-neighborhood tuple missed")
	}
	if got["JW0004"] || got["JW0007"] {
		t.Errorf("out-of-neighborhood tuples found: %v", got)
	}
	// Candidates resolve to rows of the full database.
	for _, c := range cands {
		orig, ok := db.Lookup(c.Tuple.ID)
		if !ok || orig != c.Tuple {
			t.Error("candidate row is not from the primary database")
		}
	}
}

func TestSpreadingRequiresStableACG(t *testing.T) {
	db, repo, _ := fixture(t)
	// A fresh, never-stable graph.
	g := acg.New(10, 0.1)
	g.AddAnnotation("a", []relational.TupleID{gid(0), gid(1)})
	d := New(db, repo, g)
	_, stats, err := d.IdentifyRelatedTuples(queries("JW0007"), []relational.TupleID{gid(0)},
		Options{Spreading: true, K: 2, RequireStable: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MiniDBUsed {
		t.Error("spreading used despite unstable ACG")
	}
	if stats.SearchedDB != db.TotalRows() {
		t.Error("should have fallen back to full search")
	}
}

func TestSpreadingWithoutGraphFails(t *testing.T) {
	db, repo, _ := fixture(t)
	d := New(db, repo, nil)
	_, _, err := d.IdentifyRelatedTuples(queries("JW0001"), nil, Options{Spreading: true, K: 1})
	if err == nil {
		t.Error("expected error without ACG")
	}
}

func TestSharedExecutionSameCandidates(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	qs := queries("JW0001", "JW0001", "JW0005")
	iso, isoStats, err := d.IdentifyRelatedTuples(qs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, shStats, err := d.IdentifyRelatedTuples(qs, nil, Options{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(iso) != len(sh) {
		t.Fatalf("isolated %d vs shared %d candidates", len(iso), len(sh))
	}
	for i := range iso {
		if iso[i].Tuple.ID != sh[i].Tuple.ID || iso[i].Confidence != sh[i].Confidence {
			t.Errorf("candidate %d differs: %+v vs %+v", i, iso[i], sh[i])
		}
	}
	if shStats.Exec.StructuredQueries >= isoStats.Exec.StructuredQueries {
		t.Error("sharing did not reduce executed queries")
	}
}

func TestSpamGuard(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	// 15 distinct references over a 20-tuple database: 75% coverage.
	ids := make([]string, 15)
	for i := range ids {
		ids[i] = fmt.Sprintf("JW%04d", i)
	}
	qs := queries(ids...)
	cands, _, err := d.IdentifyRelatedTuples(qs, nil, Options{SpamFraction: 0.5})
	if !errors.Is(err, ErrSpamAnnotation) {
		t.Fatalf("expected ErrSpamAnnotation, got %v", err)
	}
	var spam *SpamError
	if !errors.As(err, &spam) {
		t.Fatalf("expected *SpamError, got %T", err)
	}
	if spam.Candidates != 15 || spam.DatabaseRows != 20 || spam.Fraction != 0.5 {
		t.Errorf("spam error counts wrong: %+v", spam)
	}
	if len(cands) != 15 {
		t.Errorf("candidates should still be returned for inspection: %d", len(cands))
	}
	// The guard judges what discovery found, not what the caller kept: a
	// cut below the threshold still trips it, reports the uncut count, and
	// returns the cut list.
	for _, cut := range []Options{
		{SpamFraction: 0.5, TopK: 5},
		{SpamFraction: 0.5, MaxCandidates: 5},
	} {
		cands, _, err := d.IdentifyRelatedTuples(qs, nil, cut)
		if !errors.As(err, &spam) {
			t.Fatalf("TopK=%d MaxCandidates=%d: expected *SpamError, got %v", cut.TopK, cut.MaxCandidates, err)
		}
		if spam.Candidates != 15 {
			t.Errorf("TopK=%d MaxCandidates=%d: SpamError.Candidates = %d, want the uncut 15", cut.TopK, cut.MaxCandidates, spam.Candidates)
		}
		if len(cands) != 5 {
			t.Errorf("TopK=%d MaxCandidates=%d: returned %d candidates, want the cut 5", cut.TopK, cut.MaxCandidates, len(cands))
		}
	}
	// Guard disabled by default.
	if _, _, err := d.IdentifyRelatedTuples(qs, nil, Options{}); err != nil {
		t.Fatalf("disabled guard errored: %v", err)
	}
	// Normal annotations pass.
	if _, _, err := d.IdentifyRelatedTuples(queries("JW0001"), nil, Options{SpamFraction: 0.5}); err != nil {
		t.Fatalf("normal annotation flagged: %v", err)
	}
}

// renderCands prints each candidate's tuple, exact confidence and
// evidence, in order.
func renderCands(cs []Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("%s %b %v", c.Tuple.ID, c.Confidence, c.Evidence)
	}
	return out
}

// TestTopKIsPrefixOfFullRanking holds TopK to the uncut run: the k kept
// are the first k of the full ranking with the same confidences, evidence
// and order, and the cut never marks the run degraded. With MaxCandidates
// below k the smaller cut wins, and only the candidate budget degrades.
func TestTopKIsPrefixOfFullRanking(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	ids := make([]string, 15)
	for i := range ids {
		ids[i] = fmt.Sprintf("JW%04d", i)
	}
	qs := queries(ids...)
	focal := []relational.TupleID{gid(2)}
	for _, base := range []Options{
		{},
		{Shared: true},
		{Shared: true, FocalAdjustment: true},
		{Shared: true, FocalAdjustment: true, AdjustmentHops: 3},
	} {
		full, _, err := d.IdentifyRelatedTuples(qs, focal, base)
		if err != nil {
			t.Fatal(err)
		}
		want := renderCands(full)
		for _, k := range []int{1, 3, 10} {
			opts := base
			opts.TopK = k
			got, stats, err := d.IdentifyRelatedTuples(qs, focal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(renderCands(got), want[:k]) {
				t.Errorf("%+v: top-%d\n got %v\nwant %v", base, k, renderCands(got), want[:k])
			}
			if len(stats.Degraded) != 0 {
				t.Errorf("%+v: top-%d degraded the run: %v", base, k, stats.Degraded)
			}
			if k <= 1 {
				continue
			}
			opts.MaxCandidates = k - 1
			got, stats, err = d.IdentifyRelatedTuples(qs, focal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(renderCands(got), want[:k-1]) {
				t.Errorf("%+v: top-%d max %d\n got %v\nwant %v", base, k, k-1, renderCands(got), want[:k-1])
			}
			if len(stats.Degraded) != 1 || !strings.Contains(stats.Degraded[0], "candidate budget") {
				t.Errorf("%+v: top-%d max %d: degraded %v, want only the candidate budget", base, k, k-1, stats.Degraded)
			}
		}
	}
}

// TestNaiveTopKIsPrefixOfFullRanking is TestTopKIsPrefixOfFullRanking for
// the naive baseline: TopK keeps the first k of the uncut ranking without
// degrading the run, and a smaller MaxCandidates still wins and degrades.
func TestNaiveTopKIsPrefixOfFullRanking(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	body := "the gene JW0003 interacts with genA and JW0005, JW0007, JW0011 somehow"
	focal := []relational.TupleID{gid(3)}
	full, _, err := d.NaiveIdentifyContext(context.Background(), body, focal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderCands(full)
	if len(want) <= 3 {
		t.Fatalf("the uncut naive run found %d candidates; a cut at 3 proves nothing", len(want))
	}
	for _, k := range []int{1, 3} {
		got, stats, err := d.NaiveIdentifyContext(context.Background(), body, focal, Options{TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(renderCands(got), want[:k]) {
			t.Errorf("top-%d\n got %v\nwant %v", k, renderCands(got), want[:k])
		}
		if len(stats.Degraded) != 0 || stats.Candidates != k {
			t.Errorf("top-%d: %d candidates, degraded %v", k, stats.Candidates, stats.Degraded)
		}
	}
	got, stats, err := d.NaiveIdentifyContext(context.Background(), body, focal, Options{TopK: 3, MaxCandidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(renderCands(got), want[:2]) {
		t.Errorf("top-3 max 2\n got %v\nwant %v", renderCands(got), want[:2])
	}
	if len(stats.Degraded) != 1 || !strings.Contains(stats.Degraded[0], "candidate budget") {
		t.Errorf("top-3 max 2: degraded %v, want only the candidate budget", stats.Degraded)
	}
}

func TestNaiveIdentify(t *testing.T) {
	db, repo, g := fixture(t)
	d := New(db, repo, g)
	cands, stats := d.NaiveIdentify("the gene JW0003 interacts with genA somehow", []relational.TupleID{gid(3)})
	if stats.Exec.TuplesScanned != db.TotalRows() {
		t.Errorf("naive scanned %d", stats.Exec.TuplesScanned)
	}
	for _, c := range cands {
		if c.Tuple.ID == gid(3) {
			t.Error("focal not excluded from naive results")
		}
	}
	// genA should be found.
	found := false
	for _, c := range cands {
		if c.Tuple.MustGet("Name").Str() == "genA" {
			found = true
		}
	}
	if !found {
		t.Errorf("genA missing from naive results: %v", cands)
	}
}
