package relational_test

import (
	"fmt"
	"strings"
	"testing"

	"nebula/internal/keyword"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
	"nebula/internal/workload"
)

// workloadScanBatch returns the distinct structured queries of every
// workload annotation of the dataset, in first-generated order: Stage 1's
// keyword queries mapped through the keyword engine's configurations,
// deduplicated by fingerprint the way shared execution deduplicates them.
func workloadScanBatch(ds *workload.Dataset) []relational.Query {
	gen := sigmap.NewGenerator(ds.Meta, 0.6)
	eng := keyword.NewEngine(ds.DB, ds.Meta)
	seen := make(map[string]struct{})
	var batch []relational.Query
	for _, spec := range ds.Workload {
		queries, _ := gen.Generate(spec.Ann.Body)
		for _, q := range queries {
			for _, cfg := range eng.Configurations(q) {
				fp := cfg.Structured.Fingerprint()
				if _, dup := seen[fp]; dup {
					continue
				}
				seen[fp] = struct{}{}
				batch = append(batch, cfg.Structured)
			}
		}
	}
	return batch
}

func renderScan(sets [][]*relational.Row, stats relational.SelectStats) string {
	var b strings.Builder
	for i, rows := range sets {
		fmt.Fprintf(&b, "%d:", i)
		for _, r := range rows {
			b.WriteByte(' ')
			b.WriteString(r.ID.String())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats: %+v\n", stats)
	return b.String()
}

// TestScanBatchKernelsIdentical runs the real workload's structured queries,
// not a synthetic corpus, as one exhaustive batch through the reference row
// kernel and the folded-hash kernel: same rows, same order, same stats, at
// one and two workers.
func TestScanBatchKernelsIdentical(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	batch := workloadScanBatch(ds)
	if len(batch) == 0 {
		t.Fatal("empty scan batch")
	}
	sets, stats, err := ds.DB.SelectMultiReference(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderScan(sets, stats)
	if stats.TuplesReturned == 0 {
		t.Fatal("the batch matched nothing")
	}
	for _, workers := range []int{1, 2} {
		sets, stats, err := ds.DB.SelectMultiWorkers(batch, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderScan(sets, stats); got != want {
			t.Errorf("workers=%d: folded kernel diverged from the reference pass", workers)
		}
	}
}
