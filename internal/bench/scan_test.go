package bench

import "testing"

// TestScanBatchKernelsIdentical runs bench-scan's batch — the real
// workload's structured queries, not a synthetic corpus — through both row
// kernels without timing them.
func TestScanBatchKernelsIdentical(t *testing.T) {
	env, err := LoadEnv("tiny", 42)
	if err != nil {
		t.Fatal(err)
	}
	batch := scanBatch(env)
	if len(batch) == 0 {
		t.Fatal("empty scan batch")
	}
	db := env.Dataset.DB
	sets, stats, err := db.SelectMultiReference(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderScan(sets, stats)
	if stats.TuplesReturned == 0 {
		t.Fatal("the batch matched nothing")
	}
	for _, workers := range []int{1, 2} {
		sets, stats, err := db.SelectMultiUncached(batch, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderScan(sets, stats); got != want {
			t.Errorf("workers=%d: folded kernel diverged from the reference pass", workers)
		}
	}
}
