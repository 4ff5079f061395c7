package nebula_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nebula"
	"nebula/internal/relational"
	"nebula/internal/workload"
)

// renderDiscovery folds a run into the identity rendering the cache must
// preserve: candidates, their order, confidences, evidence, and the query
// count. Cost counters are excluded by design — stats account actual work,
// and a cache hit legitimately does less of it.
func renderDiscovery(d *nebula.Discovery) string {
	var b strings.Builder
	fmt.Fprintf(&b, "q=%d:", len(d.Queries))
	for _, c := range d.Candidates {
		fmt.Fprintf(&b, " %s=%.9f[%s]", c.Tuple.ID, c.Confidence, strings.Join(c.Evidence, ","))
	}
	return b.String()
}

// cacheFixture builds an engine over a fresh tiny dataset with the given
// cache configuration and seeds n workload annotations.
func cacheFixture(t testing.TB, cache nebula.CacheConfig, n int) (*nebula.Engine, []*workload.AnnotationSpec) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Cache = cache
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	if len(specs) < n {
		t.Fatalf("fixture has only %d workload specs, need %d", len(specs), n)
	}
	specs = specs[:n]
	for _, spec := range specs {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	return e, specs
}

// TestCacheOnOffByteIdentity drives a cached and an uncached engine through
// the same interleaved mutate/discover script over identical datasets and
// requires byte-identical results at every step — including the steps where
// the cached engine is serving warm hits and the steps right after
// mutations invalidate them.
func TestCacheOnOffByteIdentity(t *testing.T) {
	cached, specs := cacheFixture(t, nebula.CacheConfig{}, 3)
	plain, _ := cacheFixture(t, nebula.CacheConfig{Disabled: true}, 3)

	if !cached.CacheStats().Enabled {
		t.Fatal("zero-value CacheConfig should enable caching")
	}
	if plain.CacheStats().Enabled {
		t.Fatal("Disabled CacheConfig should disable caching")
	}

	step := func(label string, f func(e *nebula.Engine) (string, error)) {
		t.Helper()
		got, err := f(cached)
		if err != nil {
			t.Fatalf("%s (cached): %v", label, err)
		}
		want, err := f(plain)
		if err != nil {
			t.Fatalf("%s (uncached): %v", label, err)
		}
		if got != want {
			t.Errorf("%s: cached run diverged\ncached:   %s\nuncached: %s", label, got, want)
		}
	}
	discover := func(id nebula.AnnotationID) func(e *nebula.Engine) (string, error) {
		return func(e *nebula.Engine) (string, error) {
			d, err := e.Discover(id)
			if err != nil {
				return "", err
			}
			return renderDiscovery(d), nil
		}
	}

	// Cold, warm, warm again: the second and third cached runs are hits.
	step("discover#1", discover(specs[0].Ann.ID))
	step("discover#2", discover(specs[0].Ann.ID))
	step("discover#3", discover(specs[1].Ann.ID))
	step("discover#4", discover(specs[1].Ann.ID))

	// Data mutation: delete spec[2]'s focal tuple on both engines, then
	// rediscover — the cached engine must recompute, not serve stale rows.
	victim := specs[2].Focal(1)[0]
	step("delete-tuple", func(e *nebula.Engine) (string, error) {
		detached, cancelled, err := e.DeleteTuple(victim)
		return fmt.Sprintf("detached=%d cancelled=%d", detached, cancelled), err
	})
	step("discover-after-delete", discover(specs[0].Ann.ID))
	step("rediscover-after-delete", discover(specs[1].Ann.ID))

	// Raw row insert (below the engine API, visible via table epochs).
	step("insert-row", func(e *nebula.Engine) (string, error) {
		_, err := e.DB().MustTable("Gene").Insert([]relational.Value{
			relational.String("JW99999"), relational.String("zzz"),
			relational.Int(1234), relational.String("ACGT"), relational.String("F1"),
		})
		return "ok", err
	})
	step("discover-after-insert", discover(specs[0].Ann.ID))
	step("discover-after-insert-warm", discover(specs[0].Ann.ID))

	if hits := cached.CacheStats().Discovery.Hits; hits < 3 {
		t.Errorf("cached engine served %d discovery-cache hits across the script, want >= 3", hits)
	}
	if hits := plain.CacheStats().Totals().Hits; hits != 0 {
		t.Errorf("uncached engine reported %d cache hits, want 0", hits)
	}
}

// TestCacheInvalidationOnMutation pins the epoch protocol at the discovery
// layer: a repeat Discover is a hit, every class of mutation (row insert,
// tuple delete, annotation add, attachment verdict) forces the next run to
// miss, and the run after that is warm again.
func TestCacheInvalidationOnMutation(t *testing.T) {
	e, specs := cacheFixture(t, nebula.CacheConfig{}, 3)
	id := specs[0].Ann.ID

	discoverHits := func() int64 { return e.CacheStats().Discovery.Hits }
	discover := func(label string) {
		t.Helper()
		if _, err := e.Discover(id); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	expectMissThenHit := func(label string) {
		t.Helper()
		before := discoverHits()
		discover(label)
		if got := discoverHits(); got != before {
			t.Fatalf("%s: discover served a stale cache hit (hits %d -> %d)", label, before, got)
		}
		discover(label + "/warm")
		if got := discoverHits(); got != before+1 {
			t.Fatalf("%s: repeat discover should hit (hits %d -> %d)", label, before, got)
		}
	}

	expectMissThenHit("cold")

	if _, err := e.DB().MustTable("Gene").Insert([]relational.Value{
		relational.String("JW88888"), relational.String("yyy"),
		relational.Int(777), relational.String("TTTT"), relational.String("F2"),
	}); err != nil {
		t.Fatal(err)
	}
	expectMissThenHit("after-insert")

	if _, _, err := e.DeleteTuple(specs[2].Focal(1)[0]); err != nil {
		t.Fatal(err)
	}
	expectMissThenHit("after-delete")

	if err := e.AddAnnotation(&nebula.Annotation{ID: "cache-probe", Body: specs[1].Ann.Body},
		specs[1].Focal(1)); err != nil {
		t.Fatal(err)
	}
	expectMissThenHit("after-add-annotation")

	// Attachment verdicts mutate the ACG, which feeds focal adjustment.
	if _, _, err := e.Process(specs[1].Ann.ID); err != nil {
		t.Fatal(err)
	}
	if tasks := e.PendingTasks(); len(tasks) > 0 {
		if err := e.VerifyAttachment(tasks[0].VID); err != nil {
			t.Fatal(err)
		}
	}
	expectMissThenHit("after-verify")

	inv := e.CacheStats().Discovery.Invalidations
	if inv < 4 {
		t.Errorf("discovery cache recorded %d invalidations, want >= 4", inv)
	}
}

// TestCacheSurvivesBoundsChanges pins the bounds rule: the verification
// thresholds route Stage 3 after a discovery ran and never shape its
// answer, so neither SetBounds nor TuneBounds may invalidate a cached
// discovery, and the hit each leaves behind must equal a fresh uncached
// run.
func TestCacheSurvivesBoundsChanges(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[0]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	id := spec.Ann.ID
	if _, err := e.Discover(id); err != nil {
		t.Fatal(err)
	}
	var training []nebula.TrainingExample
	for _, s := range ds.TrainingSet(3) {
		training = append(training, nebula.TrainingExample{Annotation: s.Ann, Ideal: s.Related})
	}
	for _, step := range []scriptStep{
		{"SetBounds", func() error { return e.SetBounds(nebula.Bounds{Lower: 0.1, Upper: 0.9}) }},
		{"TuneBounds", func() error {
			_, _, err := e.TuneBounds(training, nebula.DefaultBoundsConfig())
			return err
		}},
	} {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		before := e.CacheStats().Discovery.Hits
		hit, err := e.Discover(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.CacheStats().Discovery.Hits; got != before+1 {
			t.Errorf("%s invalidated the cached discovery (hits %d -> %d)", step.name, before, got)
		}
		fresh, err := e.DiscoverRequest(context.Background(), id, nebula.RequestOptions{Cache: "off"})
		if err != nil {
			t.Fatal(err)
		}
		if renderDiscovery(hit) != renderDiscovery(fresh) {
			t.Errorf("after %s the cached discovery differs from an uncached run\ncached: %s\nfresh:  %s",
				step.name, renderDiscovery(hit), renderDiscovery(fresh))
		}
	}
}

// TestCacheSnapshotRestoreStartsCold checks the restore coherence rule:
// caches are not serialized, so a restored engine starts cold with zeroed
// counters — and still computes the same results as the warm original.
func TestCacheSnapshotRestoreStartsCold(t *testing.T) {
	// Build the original engine over a rebuildable meta repository (the
	// same BuildMeta call the restore path uses, with the same rng seed)
	// so the restored engine's configuration is exactly reproducible and
	// the byte-identity check below is meaningful.
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := workload.BuildMeta(ds.DB, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := nebula.NewWithState(ds.DB, repo, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[:2]
	for _, spec := range specs {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	id := specs[0].Ann.ID
	warm, err := e.Discover(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Discover(id); err != nil { // populate the discovery cache
		t.Fatal(err)
	}
	if e.CacheStats().Totals().Bytes == 0 {
		t.Fatal("warm engine reports zero cache occupancy")
	}

	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	configure := func(db *nebula.Database) (*nebula.MetaRepository, error) {
		return workload.BuildMeta(db, rand.New(rand.NewSource(7)))
	}
	restored, err := nebula.RestoreEngine(bytes.NewReader(buf.Bytes()), configure, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	cs := restored.CacheStats()
	if !cs.Enabled {
		t.Error("restored engine should have caching enabled under default options")
	}
	if tot := cs.Totals(); tot.Hits != 0 || tot.Misses != 0 || tot.Bytes != 0 || tot.Entries != 0 {
		t.Errorf("restored engine caches are not cold: %+v", tot)
	}

	cold, err := restored.Discover(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDiscovery(cold), renderDiscovery(warm); got != want {
		t.Errorf("restored engine diverged from the original\nrestored: %s\noriginal: %s", got, want)
	}
}

// TestCacheConcurrentDiscoverMutate hammers a caching engine with
// concurrent discovery, annotation mutation, raw row churn, and snapshot
// writes. It asserts nothing beyond "no error": the payoff is running
// under -race (make check runs the suite race-enabled), where a torn epoch
// read or an unguarded cache map would be reported.
func TestCacheConcurrentDiscoverMutate(t *testing.T) {
	e, specs := cacheFixture(t, nebula.CacheConfig{}, 3)
	const iters = 8
	var wg sync.WaitGroup

	for _, spec := range specs {
		id := spec.Ann.ID
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := e.Discover(id); err != nil {
					t.Errorf("discover %s: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // annotation churn: every Add bumps the mutation epoch
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ann := &nebula.Annotation{ID: nebula.AnnotationID(fmt.Sprintf("churn-%d", i)), Body: specs[0].Ann.Body}
			if err := e.AddAnnotation(ann, specs[0].Focal(1)); err != nil {
				t.Errorf("add churn-%d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // raw row churn: table epochs move under the scan cache
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Tables are not internally synchronized; MutateDB takes the
			// engine write lock so the insert is exclusive with the
			// concurrent discoveries and snapshot captures above.
			err := e.MutateDB(func(db *nebula.Database) error {
				_, err := db.MustTable("Gene").Insert([]relational.Value{
					relational.String(fmt.Sprintf("JW7%04d", i)), relational.String("rrr"),
					relational.Int(int64(100 + i)), relational.String("GATC"), relational.String("F3"),
				})
				return err
			})
			if err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // snapshot writes walk all engine state mid-flight
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if err := e.SaveSnapshot(io.Discard); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCacheStatsAndLimit covers the operator control surface: live budget
// resizing, rejection of nonsense budgets, and the disabled-engine error.
func TestCacheStatsAndLimit(t *testing.T) {
	e, _ := cacheFixture(t, nebula.CacheConfig{}, 1)
	if err := e.SetCacheLimit(9_999_999); err != nil {
		t.Fatal(err)
	}
	if got := e.CacheStats().Scan.MaxBytes; got != 3_333_333 {
		t.Errorf("scan layer budget after resize = %d, want a third of the total", got)
	}
	if got := e.Options().Cache.MaxBytes; got != 9_999_999 {
		t.Errorf("Options().Cache.MaxBytes = %d after SetCacheLimit", got)
	}
	if err := e.SetCacheLimit(0); err == nil {
		t.Error("SetCacheLimit(0) should be rejected")
	}
	if err := e.SetCacheLimit(-5); err == nil {
		t.Error("SetCacheLimit(-5) should be rejected")
	}

	off, _ := cacheFixture(t, nebula.CacheConfig{Disabled: true}, 1)
	if err := off.SetCacheLimit(1 << 20); err == nil {
		t.Error("SetCacheLimit on a cache-disabled engine should error")
	}
	if cs := off.CacheStats(); cs.Enabled {
		t.Errorf("disabled engine reports Enabled=true: %+v", cs)
	}
}

// TestCacheRequestOptionOverride checks the per-request escape hatch: a
// request with Cache "off" must do real work even on a warm engine, and an
// invalid mode is rejected by validation.
func TestCacheRequestOptionOverride(t *testing.T) {
	e, specs := cacheFixture(t, nebula.CacheConfig{}, 1)
	id := specs[0].Ann.ID
	if _, err := e.Discover(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Discover(id); err != nil { // warm the discovery cache
		t.Fatal(err)
	}
	before := e.CacheStats().Discovery.Hits
	if before == 0 {
		t.Fatal("warm-up discover did not hit the discovery cache")
	}
	d, err := e.DiscoverRequest(context.Background(), id, nebula.RequestOptions{Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CacheStats().Discovery.Hits; got != before {
		t.Errorf("Cache:\"off\" request hit the discovery cache (hits %d -> %d)", before, got)
	}
	if d.ExecStats.Exec.TuplesScanned == 0 && d.ExecStats.Exec.TuplesReturned == 0 {
		t.Error("Cache:\"off\" request reported no scan work at all")
	}
	if err := (nebula.RequestOptions{Cache: "sometimes"}).Validate(); err == nil {
		t.Error("invalid cache mode accepted by RequestOptions.Validate")
	}
}

// TestCacheGovernorCommand drives the sqlish CACHE clause end to end:
// CACHE OFF bypasses the cache for that statement, a byte count resizes
// the live budget, and malformed forms are rejected at parse time.
func TestCacheGovernorCommand(t *testing.T) {
	e, specs := cacheFixture(t, nebula.CacheConfig{}, 1)
	id := specs[0].Ann.ID

	if _, err := e.ExecCommand(fmt.Sprintf("DISCOVER '%s' CACHE ON", id)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecCommand(fmt.Sprintf("DISCOVER '%s' CACHE ON", id)); err != nil {
		t.Fatal(err)
	}
	warmHits := e.CacheStats().Discovery.Hits
	if warmHits == 0 {
		t.Fatal("repeat DISCOVER ... CACHE ON did not hit the discovery cache")
	}

	if _, err := e.ExecCommand(fmt.Sprintf("DISCOVER '%s' CACHE OFF", id)); err != nil {
		t.Fatal(err)
	}
	if got := e.CacheStats().Discovery.Hits; got != warmHits {
		t.Errorf("DISCOVER ... CACHE OFF hit the discovery cache (hits %d -> %d)", warmHits, got)
	}

	if _, err := e.ExecCommand(fmt.Sprintf("DISCOVER '%s' CACHE 4194304", id)); err != nil {
		t.Fatal(err)
	}
	if got := e.CacheStats().Scan.MaxBytes; got != 4194304/3 {
		t.Errorf("CACHE 4194304 left the scan layer at %d bytes, want %d", got, 4194304/3)
	}

	for _, bad := range []string{
		fmt.Sprintf("DISCOVER '%s' CACHE", id),
		fmt.Sprintf("DISCOVER '%s' CACHE MAYBE", id),
		fmt.Sprintf("DISCOVER '%s' CACHE -1", id),
		fmt.Sprintf("DISCOVER '%s' CACHE 0", id),
	} {
		if _, err := e.ExecCommand(bad); err == nil {
			t.Errorf("%q accepted, want parse error", bad)
		}
	}
}
