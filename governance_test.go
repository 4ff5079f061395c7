package nebula_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nebula"
	"nebula/internal/faultinject"
	"nebula/internal/keyword"
	"nebula/internal/workload"
)

// addSpec inserts one workload annotation with Δ=1 focal and returns its ID.
func addSpec(t *testing.T, e *nebula.Engine, ds *workload.Dataset, idx int) nebula.AnnotationID {
	t.Helper()
	spec := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[idx]
	if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	return spec.Ann.ID
}

// injectingFactory returns a SearcherFactory wrapping the default metadata
// technique with fault injection, and a pointer through which the test can
// reach the injector the last discovery run used. The pointer write is
// atomic because read-locked discoveries invoke the factory concurrently.
func injectingFactory(ds *workload.Dataset, cfg faultinject.Config) (nebula.Options, *atomic.Pointer[faultinject.Searcher]) {
	var last atomic.Pointer[faultinject.Searcher]
	opts := nebula.DefaultOptions()
	opts.SearcherFactory = func(db *nebula.Database) nebula.KeywordSearcher {
		s := faultinject.Wrap(keyword.NewEngine(db, ds.Meta), cfg)
		last.Store(s)
		return s
	}
	return opts, &last
}

func TestDeadlineReturnsTypedErrorAndPartials(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := injectingFactory(ds, faultinject.Config{Latency: time.Second})
	opts.Budget.Deadline = time.Millisecond
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := addSpec(t, e, ds, 0)

	start := time.Now()
	disc, err := e.DiscoverContext(context.Background(), id)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline did not fire (%v elapsed)", elapsed)
	}
	if !errors.Is(err, nebula.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if disc == nil {
		t.Fatal("interrupted run must still return the partial Discovery")
	}
	if len(disc.Queries) == 0 {
		t.Error("Stage 1 completed before the deadline; queries must be present")
	}
	if len(disc.Degraded()) == 0 {
		t.Error("interrupted run must record degradation reasons")
	}
}

func TestProcessInterruptedSubmitsNothing(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := injectingFactory(ds, faultinject.Config{Latency: time.Second})
	opts.Budget.Deadline = time.Millisecond
	opts.Bounds = nebula.Bounds{Lower: 0, Upper: 0.1} // would accept nearly anything
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := addSpec(t, e, ds, 0)

	disc, outcome, err := e.ProcessContext(context.Background(), id)
	if !errors.Is(err, nebula.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if disc == nil {
		t.Fatal("interrupted Process must return the partial Discovery")
	}
	if len(outcome.Accepted)+len(outcome.Pending)+len(outcome.Rejected) != 0 {
		t.Errorf("interrupted run routed candidates: %+v", outcome)
	}
	if len(e.PendingTasks()) != 0 {
		t.Error("interrupted run enqueued verification tasks")
	}
}

func TestCancelledContextReturnsErrCancelled(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	id := addSpec(t, e, ds, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.DiscoverContext(ctx, id)
	if !errors.Is(err, nebula.ErrCancelled) {
		t.Errorf("Discover err = %v, want ErrCancelled", err)
	}
	_, err = e.NaiveDiscoverContext(ctx, id)
	if !errors.Is(err, nebula.ErrCancelled) {
		t.Errorf("NaiveDiscover err = %v, want ErrCancelled", err)
	}
}

// TestUngovernedRunsAreIdentical pins the acceptance criterion that runs
// with no budget behave identically to the legacy path, and that merely
// making a run cancellable (a live, never-cancelled context) does not
// change its output either.
func TestUngovernedRunsAreIdentical(t *testing.T) {
	// Caching off: this test asserts ExecStats equality across repeated
	// identical runs, which requires each run to do the actual work rather
	// than short-circuit on the discovery cache (stats account real cost).
	opts := nebula.DefaultOptions()
	opts.Cache.Disabled = true
	e, ds := engineFixture(t, opts)
	id := addSpec(t, e, ds, 0)

	legacy, err := e.Discover(id)
	if err != nil {
		t.Fatal(err)
	}
	// A background context with a zero budget takes the exact legacy code
	// path: everything matches, execution cost included.
	background, err := e.DiscoverContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Candidates, background.Candidates) ||
		!reflect.DeepEqual(legacy.Queries, background.Queries) ||
		!reflect.DeepEqual(legacy.ExecStats, background.ExecStats) {
		t.Error("background-context run diverged from legacy Discover")
	}
	// A live (cancellable) context switches to chunked execution — same
	// queries, same candidates; only the scan-sharing economics may differ.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	governed, err := e.DiscoverContext(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Queries, governed.Queries) {
		t.Error("governed run generated different queries")
	}
	if !reflect.DeepEqual(legacy.Candidates, governed.Candidates) {
		t.Error("governed run produced different candidates")
	}
	if len(legacy.Degraded()) != 0 || len(governed.Degraded()) != 0 {
		t.Errorf("unbounded runs must not degrade: %v / %v", legacy.Degraded(), governed.Degraded())
	}
}

func TestCountBudgetsDegradeWithoutError(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Budget = nebula.Budget{MaxQueries: 1, MaxCandidates: 2}
	e, ds := engineFixture(t, opts)
	id := addSpec(t, e, ds, 0)

	// Establish that the annotation normally produces more work than the
	// budget allows, so the truncations below are real.
	unbounded, ds2 := engineFixture(t, nebula.DefaultOptions())
	spec := ds2.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[0]
	if err := unbounded.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
		t.Fatal(err)
	}
	ref, err := unbounded.Discover(spec.Ann.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Queries) < 2 || len(ref.Candidates) < 3 {
		t.Skipf("fixture too small to exercise budgets (%d queries, %d candidates)",
			len(ref.Queries), len(ref.Candidates))
	}

	disc, err := e.Discover(id)
	if err != nil {
		t.Fatalf("count budgets must not error: %v", err)
	}
	if len(disc.Queries) > 1 {
		t.Errorf("MaxQueries=1 left %d queries", len(disc.Queries))
	}
	if len(disc.Candidates) > 2 {
		t.Errorf("MaxCandidates=2 left %d candidates", len(disc.Candidates))
	}
	degraded := disc.Degraded()
	if len(degraded) == 0 {
		t.Fatal("budget truncations must be recorded")
	}
	joined := strings.Join(degraded, "\n")
	if !strings.Contains(joined, "query budget") {
		t.Errorf("missing query-budget reason in %q", joined)
	}
}

func TestScanBudgetBoundsNaiveScan(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Budget.MaxSearchedRows = 1
	e, ds := engineFixture(t, opts)
	id := addSpec(t, e, ds, 0)
	disc, err := e.NaiveDiscover(id)
	if err != nil {
		t.Fatalf("scan budget must not error: %v", err)
	}
	if scanned := disc.ExecStats.Exec.TuplesScanned; scanned >= e.DB().TotalRows() {
		t.Errorf("budgeted naive scan examined the whole database (%d rows)", scanned)
	}
	if len(disc.Degraded()) == 0 {
		t.Error("scan truncation must be recorded")
	}
}

// TestDegradedRunNeverAutoAccepts is the routing half of the governance
// contract: confidences from a truncated evidence base must not attach
// tuples unattended.
func TestDegradedRunNeverAutoAccepts(t *testing.T) {
	accepting := nebula.DefaultOptions()
	accepting.Bounds = nebula.Bounds{Lower: 0, Upper: 0.5}
	e, ds := engineFixture(t, accepting)
	id := addSpec(t, e, ds, 0)
	_, outcome, err := e.Process(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Accepted) == 0 {
		t.Skip("fixture produced no auto-accepts; cannot exercise degraded routing")
	}

	degradedOpts := nebula.DefaultOptions()
	degradedOpts.Bounds = nebula.Bounds{Lower: 0, Upper: 0.5}
	degradedOpts.Budget.MaxQueries = 2
	e2, ds2 := engineFixture(t, degradedOpts)
	id2 := addSpec(t, e2, ds2, 0)
	disc, outcome, err := e2.Process(id2)
	if err != nil {
		t.Fatal(err)
	}
	if len(disc.Degraded()) == 0 {
		t.Skip("budget did not bite; nothing to verify")
	}
	if len(outcome.Accepted) != 0 {
		t.Errorf("degraded run auto-accepted %d candidates", len(outcome.Accepted))
	}
	if len(outcome.Pending) == 0 {
		t.Error("degraded run's confident candidates should be pending, not dropped")
	}
}

func TestTransientFaultsAreRetried(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts, inj := injectingFactory(ds, faultinject.Config{FailFirst: 2})
	opts.Retry = nebula.RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := addSpec(t, e, ds, 0)

	disc, err := e.Discover(id)
	if err != nil {
		t.Fatalf("retries should heal two transient faults: %v", err)
	}
	if inj.Load().Calls() != 3 {
		t.Errorf("searcher saw %d calls, want 3 (2 faults + success)", inj.Load().Calls())
	}
	if disc.ExecStats.Retries != 2 {
		t.Errorf("Stats.Retries = %d, want 2", disc.ExecStats.Retries)
	}
	if !strings.Contains(strings.Join(disc.Degraded(), "\n"), "retried") {
		t.Errorf("retried run must be marked degraded: %v", disc.Degraded())
	}
	if len(disc.Candidates) == 0 {
		t.Error("healed run produced no candidates")
	}
}

func TestPersistentFaultsAreNotRetried(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts, inj := injectingFactory(ds, faultinject.Config{FailEvery: 1})
	opts.Retry = nebula.RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := addSpec(t, e, ds, 0)

	_, err = e.Discover(id)
	if err == nil {
		t.Fatal("persistent fault should surface")
	}
	if errors.Is(err, nebula.ErrCancelled) || errors.Is(err, nebula.ErrBudgetExceeded) {
		t.Errorf("persistent fault mislabeled as governance error: %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("cause lost from %v", err)
	}
	if inj.Load().Calls() != 1 {
		t.Errorf("persistent fault was retried (%d calls)", inj.Load().Calls())
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts, inj := injectingFactory(ds, faultinject.Config{FailFirst: 100})
	opts.Retry = nebula.RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := addSpec(t, e, ds, 0)
	if _, err := e.Discover(id); err == nil {
		t.Fatal("exhausted retries should surface the fault")
	}
	if inj.Load().Calls() != 3 {
		t.Errorf("searcher saw %d calls, want 3 (initial + 2 retries)", inj.Load().Calls())
	}
}

func TestSpamAnnotationSubmitsNoTasks(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.SpamFraction = 0.001 // on the tiny dataset any candidate set trips
	opts.Bounds = nebula.Bounds{Lower: 0, Upper: 0.1}
	e, ds := engineFixture(t, opts)
	id := addSpec(t, e, ds, 0)

	disc, outcome, err := e.Process(id)
	if !errors.Is(err, nebula.ErrSpamAnnotation) {
		t.Fatalf("err = %v, want ErrSpamAnnotation", err)
	}
	var spam *nebula.SpamError
	if !errors.As(err, &spam) {
		t.Fatalf("error %v does not carry *SpamError", err)
	}
	if spam.Candidates == 0 || spam.DatabaseRows == 0 {
		t.Errorf("spam error missing counts: %+v", spam)
	}
	if disc == nil || len(disc.Candidates) != spam.Candidates {
		t.Error("quarantined candidates must be inspectable on the Discovery")
	}
	if len(outcome.Accepted)+len(outcome.Pending)+len(outcome.Rejected) != 0 {
		t.Errorf("spam run routed candidates: %+v", outcome)
	}
	if len(e.PendingTasks()) != 0 {
		t.Error("spam annotation enqueued verification tasks")
	}
	if len(e.Store().Attachments(id, -1)) != 1 { // only the manual focal
		t.Error("spam annotation gained attachments")
	}
}

// panicSearcher blows up inside the pipeline to exercise the Engine's
// public-boundary panic recovery.
type panicSearcher struct{ db *nebula.Database }

func (p *panicSearcher) Execute(q keyword.Query) ([]keyword.Result, keyword.ExecStats, error) {
	panic("poisoned searcher")
}

func (p *panicSearcher) ExecuteBatch(qs []keyword.Query, shared bool) (map[string][]keyword.Result, keyword.ExecStats, error) {
	panic("poisoned searcher")
}

func (p *panicSearcher) ExecuteBatchContext(ctx context.Context, qs []keyword.Query, shared bool, lim keyword.Limits) (map[string][]keyword.Result, keyword.ExecStats, error) {
	panic("poisoned searcher")
}

func (p *panicSearcher) Database() *nebula.Database { return p.db }

func TestPanicBecomesErrInternal(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.SearcherFactory = func(db *nebula.Database) nebula.KeywordSearcher {
		return &panicSearcher{db: db}
	}
	e, ds := engineFixture(t, opts)
	id := addSpec(t, e, ds, 0)

	if _, err := e.DiscoverContext(context.Background(), id); !errors.Is(err, nebula.ErrInternal) {
		t.Fatalf("Discover err = %v, want ErrInternal", err)
	}
	if _, _, err := e.ProcessContext(context.Background(), id); !errors.Is(err, nebula.ErrInternal) {
		t.Fatalf("Process err = %v, want ErrInternal", err)
	}
	// Every write entry point that runs the pipeline recovers too: the
	// shell's DISCOVER and PROCESS, and bounds training.
	var training []nebula.TrainingExample
	for _, spec := range ds.TrainingSet(3) {
		training = append(training, nebula.TrainingExample{Annotation: spec.Ann, Ideal: spec.Related})
	}
	for name, call := range map[string]func() error{
		"ExecCommand DISCOVER": func() error { _, err := e.ExecCommand(fmt.Sprintf("DISCOVER '%s'", id)); return err },
		"ExecCommand PROCESS":  func() error { _, err := e.ExecCommand(fmt.Sprintf("PROCESS '%s'", id)); return err },
		"TuneBounds": func() error {
			_, _, err := e.TuneBounds(training, nebula.DefaultBoundsConfig())
			return err
		},
	} {
		if err := callCatchingPanic(call); !errors.Is(err, nebula.ErrInternal) {
			t.Errorf("%s err = %v, want ErrInternal", name, err)
		}
	}
	// The poisoned calls must not take the engine down with them: every
	// lock is released and other surfaces, writers included, keep working.
	if got := len(e.PendingTasks()); got != 0 {
		t.Errorf("pending tasks after panic = %d", got)
	}
	if b := e.Bounds(); b.Upper == 0 {
		t.Error("engine unusable after recovered panic")
	}
	done := make(chan error, 1)
	go func() { done <- e.SetBounds(nebula.Bounds{Lower: 0.2, Upper: 0.8}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("SetBounds after recovered panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SetBounds blocked: a recovered panic left a lock held")
	}
}

// callCatchingPanic runs call, turning a panic that escapes it into an
// error so one escaping entry point fails its own check, not the binary.
func callCatchingPanic(call func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic escaped the call: %v", r)
		}
	}()
	return call()
}

// TestConcurrentCancellation drives governed discoveries from many
// goroutines with racing deadlines; run under -race this pins the
// thread-safety of the cancellation paths.
func TestConcurrentCancellation(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := injectingFactory(ds, faultinject.Config{Latency: 2 * time.Millisecond})
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	ids := make([]nebula.AnnotationID, 4)
	for i := range ids {
		if err := e.AddAnnotation(specs[i].Ann, specs[i].Focal(1)); err != nil {
			t.Fatal(err)
		}
		ids[i] = specs[i].Ann.ID
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			timeout := time.Duration(i%4+1) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			disc, err := e.DiscoverContext(ctx, ids[i%len(ids)])
			if err != nil && !errors.Is(err, nebula.ErrBudgetExceeded) && !errors.Is(err, nebula.ErrCancelled) {
				t.Errorf("goroutine %d: unexpected error %v", i, err)
			}
			if err != nil && disc == nil {
				t.Errorf("goroutine %d: interrupted run lost its partial Discovery", i)
			}
		}(i)
	}
	wg.Wait()
	// The engine is still healthy afterwards.
	if _, err := e.DiscoverContext(context.Background(), ids[0]); err != nil {
		t.Fatalf("engine unhealthy after concurrent cancellations: %v", err)
	}
}

func TestExecCommandGovernors(t *testing.T) {
	opts := nebula.DefaultOptions()
	e, ds := engineFixture(t, opts)
	id := addSpec(t, e, ds, 0)

	ref, err := e.Discover(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Candidates) < 2 {
		t.Skipf("fixture produced %d candidates; MAX cannot bite", len(ref.Candidates))
	}
	res, err := e.ExecCommand(fmt.Sprintf("DISCOVER '%s' MAX 1", id))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("MAX 1 returned %d rows", len(res.Rows))
	}
	if !strings.Contains(res.Message, "degraded") {
		t.Errorf("message %q does not surface the degradation", res.Message)
	}
	// The statement-level override must not stick on the engine.
	if after, err := e.Discover(id); err != nil || len(after.Candidates) != len(ref.Candidates) {
		t.Errorf("MAX clause leaked into engine options: %d candidates (err %v)", len(after.Candidates), err)
	}
}

func TestBudgetValidation(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Budget.MaxQueries = -1
	if _, err := nebula.New(ds.DB, ds.Meta, opts); err == nil {
		t.Error("negative budget accepted")
	}
	opts = nebula.DefaultOptions()
	opts.Retry.MaxRetries = -2
	if _, err := nebula.New(ds.DB, ds.Meta, opts); err == nil {
		t.Error("negative retry count accepted")
	}
}
