package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"nebula/internal/keyword"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
)

// ScanResult records one row kernel of the shared-scan benchmark: the
// dataset's whole workload turned into its distinct structured queries and
// executed as one exhaustive SelectMulti batch (scan cache off, one
// worker). Kernel "reference" is the pass the folded-hash kernel replaced
// (Value.Key() per row per probed column), "folded" is the production
// kernel. The three per-op figures are testing.Benchmark's.
type ScanResult struct {
	Dataset string `json:"dataset"`
	Kernel  string `json:"kernel"`
	// Queries is the batch size.
	Queries int `json:"queries"`
	// TuplesScanned and TuplesReturned are the batch's SelectStats, the
	// same for both kernels by contract.
	TuplesScanned  int   `json:"tuples_scanned"`
	TuplesReturned int   `json:"tuples_returned"`
	NsPerOp        int64 `json:"ns_per_op"`
	AllocsPerOp    int64 `json:"allocs_per_op"`
	BytesPerOp     int64 `json:"bytes_per_op"`
	// Speedup is the reference row's NsPerOp over this row's.
	Speedup float64 `json:"speedup"`
	// Identical reports whether this kernel's rows, their order and the
	// stats matched the reference kernel's byte for byte.
	Identical bool `json:"identical"`
}

// scanBatch returns the distinct structured queries of every workload
// annotation of the dataset, in first-generated order: Stage 1's keyword
// queries mapped through the keyword engine's configurations, deduplicated
// by fingerprint the way shared execution deduplicates them.
func scanBatch(env *Env) []relational.Query {
	ds := env.Dataset
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

// RunScanBench measures both kernels on each dataset size.
func RunScanBench(sizes []string, seed int64) ([]ScanResult, error) {
	var out []ScanResult
	for _, size := range sizes {
		env, err := LoadEnv(size, seed)
		if err != nil {
			return nil, err
		}
		db := env.Dataset.DB
		batch := scanBatch(env)
		kernels := []struct {
			name string
			run  func() ([][]*relational.Row, relational.SelectStats, error)
		}{
			{"reference", func() ([][]*relational.Row, relational.SelectStats, error) { return db.SelectMultiReference(batch, 1) }},
			{"folded", func() ([][]*relational.Row, relational.SelectStats, error) { return db.SelectMultiUncached(batch, 1) }},
		}
		var reference string
		var referenceNS int64
		for _, k := range kernels {
			sets, stats, err := k.run()
			if err != nil {
				return nil, fmt.Errorf("bench: scan batch (%s, %s): %w", env.Name, k.name, err)
			}
			rendered := renderScan(sets, stats)
			if k.name == "reference" {
				reference = rendered
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := k.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			row := ScanResult{
				Dataset:        env.Name,
				Kernel:         k.name,
				Queries:        len(batch),
				TuplesScanned:  stats.TuplesScanned,
				TuplesReturned: stats.TuplesReturned,
				NsPerOp:        res.NsPerOp(),
				AllocsPerOp:    res.AllocsPerOp(),
				BytesPerOp:     res.AllocedBytesPerOp(),
				Identical:      rendered == reference,
			}
			if k.name == "reference" {
				referenceNS = row.NsPerOp
			}
			if row.NsPerOp > 0 {
				row.Speedup = float64(referenceNS) / float64(row.NsPerOp)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// ScanTable renders benchmark results as a printable table.
func ScanTable(results []ScanResult) *Table {
	t := &Table{
		Title:  "Shared-scan kernel — Key() per row (reference) vs folded-hash probe, one exhaustive SelectMulti batch",
		Header: []string{"dataset", "kernel", "queries", "scanned", "returned", "ms/op", "allocs/op", "KiB/op", "speedup", "identical"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Dataset, r.Kernel, fmtI(r.Queries), fmtI(r.TuplesScanned), fmtI(r.TuplesReturned),
			fmtMs(r.NsPerOp), fmt.Sprintf("%d", r.AllocsPerOp), fmt.Sprintf("%.1f", float64(r.BytesPerOp)/1024),
			fmt.Sprintf("%.2fx", r.Speedup), fmt.Sprintf("%v", r.Identical),
		})
	}
	return t
}

// scanJSON is the BENCH_scan.json document.
type scanJSON struct {
	Env     BenchEnv     `json:"env"`
	Results []ScanResult `json:"results"`
}

// WriteScanJSON emits the results (with the environment header) for
// BENCH_scan.json.
func WriteScanJSON(w io.Writer, results []ScanResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scanJSON{Env: CurrentBenchEnv(), Results: results})
}
