package nebula_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"nebula"
	"nebula/internal/acg"
	"nebula/internal/experiment"
	"nebula/internal/keyword"
	"nebula/internal/raceflag"
	"nebula/internal/relational"
	"nebula/internal/server"
	"nebula/internal/sigmap"
	"nebula/internal/textutil"
	"nebula/internal/workload"
)

// Micro-benchmarks for the individual substrates, complementing the
// figure-level benchmarks in bench_test.go. Run with -benchmem to see the
// allocation profiles.

func microDataset(b *testing.B) *workload.Dataset {
	b.Helper()
	env, err := experiment.LoadEnv("small", 42)
	if err != nil {
		b.Fatal(err)
	}
	return env.Dataset
}

// freshDataset generates a private dataset for a benchmark that grows an
// engine on it (the shared LoadEnv copy is read-only).
func freshDataset(tb testing.TB, size string) *workload.Dataset {
	tb.Helper()
	cfg, err := workload.SizeConfig(size, 42)
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// BenchmarkRelationalIndexedSelect measures a hash-indexed point query.
func BenchmarkRelationalIndexedSelect(b *testing.B) {
	ds := microDataset(b)
	q := relational.Query{Table: "Gene", Predicates: []relational.Predicate{
		{Column: "GID", Op: relational.OpEq, Operand: relational.String("JW00042")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationalScanSelect measures a non-indexed column scan.
func BenchmarkRelationalScanSelect(b *testing.B) {
	ds := microDataset(b)
	q := relational.Query{Table: "Gene", Predicates: []relational.Predicate{
		{Column: "Name", Op: relational.OpEq, Operand: relational.String("aabX")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationalSharedScan measures the batched-scan path of
// SelectMultiWorkers with 8 same-column scan queries.
func BenchmarkRelationalSharedScan(b *testing.B) {
	ds := microDataset(b)
	queries := make([]relational.Query, 8)
	for i := range queries {
		queries[i] = relational.Query{Table: "Gene", Predicates: []relational.Predicate{
			{Column: "Name", Op: relational.OpEq,
				Operand: relational.String(fmt.Sprintf("aa%cX", 'a'+i))},
		}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.SelectMultiWorkers(queries, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// matcherWords are annotation words of each kind the signature maps see:
// plain English, a schema name, an ontology term, identifiers that do and do
// not fit a column's pattern, and a protein name scored against the sample.
var matcherWords = []string{"binding", "Gene", "proteins", "kinase", "JW00042", "P00017", "aabX", "Actin", "X9-22b"}

var matcherSink int

// BenchmarkValueMatches measures the Value-Map scoring of one word over the
// ConceptRefs target columns.
func BenchmarkValueMatches(b *testing.B) {
	ds := microDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcherSink += len(ds.Meta.ValueMatches(matcherWords[i%len(matcherWords)]))
	}
}

// BenchmarkConceptMatches measures the Concept-Map scoring of one word over
// the ConceptRefs schema elements.
func BenchmarkConceptMatches(b *testing.B) {
	ds := microDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcherSink += len(ds.Meta.ConceptMatches(matcherWords[i%len(matcherWords)]))
	}
}

// TestMatcherAllocations is the allocation guard of the compiled matcher:
// scoring a word allocates its result slice and nothing else, and a word
// that matches no concept allocates nothing.
func TestMatcherAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env, err := experiment.LoadEnv("tiny", 42)
	if err != nil {
		t.Fatal(err)
	}
	repo := env.Dataset.Meta
	for _, word := range matcherWords {
		lower := strings.ToLower(word)
		values := testing.AllocsPerRun(100, func() { matcherSink += len(repo.ValueMatchesLowered(word, lower)) })
		if values > 1 {
			t.Errorf("ValueMatches(%q): %v allocations, want at most the result slice", word, values)
		}
		matches := len(repo.ConceptMatches(word))
		concepts := testing.AllocsPerRun(100, func() { matcherSink += len(repo.ConceptMatchesLowered(word, lower)) })
		// append grows the result 1 -> 2 -> 4 entries.
		if want := map[int]float64{0: 0, 1: 1, 2: 2}[matches]; matches <= 2 && concepts != want {
			t.Errorf("ConceptMatches(%q): %v allocations for %d matches, want %v", word, concepts, matches, want)
		}
	}
}

// BenchmarkSigmapGenerate measures Stage-1 query generation on an L^500
// annotation.
func BenchmarkSigmapGenerate(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(500, workload.RefClass{})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := sigmap.NewGenerator(ds.Meta, 0.6)
		gen.Generate(spec.Ann.Body)
	}
}

// BenchmarkKeywordExecute measures one hinted Type-2 query through the
// metadata engine.
func BenchmarkKeywordExecute(b *testing.B) {
	ds := microDataset(b)
	engine := keyword.NewEngine(ds.DB, ds.Meta)
	q := keyword.Query{ID: "q", Weight: 1, Keywords: []keyword.Keyword{
		{Text: "gene", Role: keyword.RoleTable, TargetTable: "Gene", Weight: 1},
		{Text: "JW00042", Role: keyword.RoleValue, TargetTable: "Gene", TargetColumn: "GID", Weight: 0.9},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolTableBuild measures the pre-processing pass of the
// index-first technique over D_small.
func BenchmarkSymbolTableBuild(b *testing.B) {
	ds := microDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keyword.NewSymbolTableEngine(ds.DB)
	}
}

// BenchmarkACGNeighborhood measures the K=3 BFS + sort used by the
// spreading search.
func BenchmarkACGNeighborhood(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(100, workload.RefClass{})[0]
	focal := spec.Focal(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Graph.Neighborhood(focal, 3)
	}
}

// BenchmarkSubsetMaterialize measures miniDB materialization for a K=3
// neighborhood.
func BenchmarkSubsetMaterialize(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(100, workload.RefClass{})[0]
	ids := ds.Graph.Neighborhood(spec.Focal(1), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.DB.Subset(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACGPathWeights measures the multi-hop focal adjustment's
// strongest-shortest-path computation.
func BenchmarkACGPathWeights(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(100, workload.RefClass{})[0]
	source := spec.Focal(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Graph.PathWeights(source, 3)
	}
}

// BenchmarkProfileRecord measures hop-profile updates.
func BenchmarkProfileRecord(b *testing.B) {
	p := acg.NewProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Record(i%6, i%17 != 0)
	}
}

// midSnapshot is a D_mid engine's snapshot stream: the restart path's input
// at the size the end-to-end benchmark uses.
func midSnapshot(b *testing.B) []byte {
	b.Helper()
	ds := freshDataset(b, "mid")
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRestoreEngine measures a restart's snapshot half on D_mid:
// verify, decode and rebuild tables, annotation store and ACG. MB/s is
// snapshot bytes restored per second; allocs/op over the ~27 000 restored
// rows is the allocation cost per row.
func BenchmarkRestoreEngine(b *testing.B) {
	raw := midSnapshot(b)
	configure := func(db *nebula.Database) (*nebula.MetaRepository, error) {
		return workload.BuildMeta(db, rand.New(rand.NewSource(11)))
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nebula.RestoreEngine(bytes.NewReader(raw), configure, nebula.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenize measures the tokeniser over D_mid's publication
// abstracts, the text the inverted indexes are built from.
func BenchmarkTokenize(b *testing.B) {
	env, err := experiment.LoadEnv("mid", 42)
	if err != nil {
		b.Fatal(err)
	}
	var texts []string
	var size int64
	for _, r := range env.Dataset.DB.MustTable("Publication").Rows() {
		s := r.MustGet("Abstract").Str()
		texts = append(texts, s)
		size += int64(len(s))
	}
	b.SetBytes(size / int64(len(texts)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcherSink += len(textutil.Tokenize(texts[i%len(texts)]))
	}
}

// hitBed is a D_mid engine shaped like the end-to-end benchmark's
// discover_hot one (defaults, four shards) with the discoveries of ids
// already in the cache: the serving path's repeat-read case.
func hitBed(tb testing.TB, size string, n int) (*nebula.Engine, []nebula.AnnotationID) {
	tb.Helper()
	ds := freshDataset(tb, size)
	opts := nebula.DefaultOptions()
	opts.Shards = 4
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]nebula.AnnotationID, min(n, len(ds.Base)))
	for i := range ids {
		ids[i] = ds.Base[i].Ann.ID
		if _, err := e.Discover(ids[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return e, ids
}

// BenchmarkDiscoverHit measures Engine.DiscoverRequest answered from the
// discovery cache on D_mid: the engine's share of a repeat read.
func BenchmarkDiscoverHit(b *testing.B) {
	e, ids := hitBed(b, "mid", 1000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := e.DiscoverRequest(ctx, ids[i%len(ids)], nebula.RequestOptions{})
		if err != nil {
			b.Fatal(err)
		}
		matcherSink += len(d.Candidates)
	}
}

// BenchmarkServeDiscoverHit measures the same repeat read through the
// POST /v1/discover handler (admission, decode, engine, encode, counters)
// into an httptest.ResponseRecorder: the server's share of a round trip,
// without net/http's connection handling and the client.
func BenchmarkServeDiscoverHit(b *testing.B) {
	e, ids := hitBed(b, "mid", 1000)
	srv, err := server.New(server.Config{Engine: e, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	payloads := make([]string, len(ids))
	for i, id := range ids {
		payloads[i] = fmt.Sprintf(`{"id":%q}`, id)
	}
	body := strings.NewReader("")
	req := httptest.NewRequest("POST", "/v1/discover", nil)
	req.Body = io.NopCloser(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(payloads[i%len(payloads)])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		matcherSink += rec.Body.Len()
	}
}

// TestCacheHitAllocations is the allocation budget of a discovery answered
// from the cache: the focal list, its canonical string in the key, the
// returned Discovery and its own copy of the candidates. A fifth allocation
// means the hit path has started to rebuild something per request.
func TestCacheHitAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, ids := hitBed(t, "tiny", 50)
	ctx := context.Background()
	for _, id := range ids {
		allocs := testing.AllocsPerRun(50, func() {
			d, err := e.DiscoverRequest(ctx, id, nebula.RequestOptions{})
			if err != nil || d.ExecStats.Exec.CacheHits != 1 {
				t.Fatalf("discover %s: not a cache hit (err %v)", id, err)
			}
		})
		if allocs > 4 {
			t.Errorf("cache hit on %s: %v allocations, want at most 4", id, allocs)
		}
	}
}

// coldBed is a D_size engine shaped like the end-to-end benchmark's
// discover_cold one (defaults, four shards) and its base publications.
// Discoveries run with the cache off, so each one takes the whole cold path:
// Stage 1, configuration building, the shared scans and ranking.
func coldBed(tb testing.TB, size string) (*nebula.Engine, []nebula.AnnotationID) {
	tb.Helper()
	ds := freshDataset(tb, size)
	opts := nebula.DefaultOptions()
	opts.Shards = 4
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]nebula.AnnotationID, len(ds.Base))
	for i, spec := range ds.Base {
		ids[i] = spec.Ann.ID
	}
	return e, ids
}

var coldRequest = nebula.RequestOptions{Cache: "off"}

// BenchmarkDiscoverCold measures Engine.DiscoverRequest on D_mid with the
// cache off, stepping through the base publications so that consecutive
// discoveries never repeat one: the engine's share of a discover_cold step.
func BenchmarkDiscoverCold(b *testing.B) {
	e, ids := coldBed(b, "mid")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := e.DiscoverRequest(ctx, ids[i%len(ids)], coldRequest)
		if err != nil {
			b.Fatal(err)
		}
		matcherSink += len(d.Candidates)
	}
}

// coldDiscoveryAllocs is TestColdDiscoveryAllocations' budget: the 332
// allocations measured on D_small, plus a margin of about 5 %.
const coldDiscoveryAllocs = 350

// TestColdDiscoveryAllocations is the allocation budget of a cold discovery
// on D_small, averaged over the first base publications: Stage 1's maps and
// queries, the configurations, the scan results and the ranked candidates.
// A rise past it means the cold path has started to build something per
// query or per configuration again.
func TestColdDiscoveryAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, ids := coldBed(t, "small")
	ids = ids[:200]
	ctx := context.Background()
	next := 0
	allocs := testing.AllocsPerRun(len(ids), func() {
		if _, err := e.DiscoverRequest(ctx, ids[next%len(ids)], coldRequest); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocations per cold discovery", allocs)
	if allocs > coldDiscoveryAllocs {
		t.Errorf("cold discovery: %.0f allocations, want at most %d", allocs, coldDiscoveryAllocs)
	}
}
