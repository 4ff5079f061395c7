package experiment

import (
	"fmt"
	"time"

	"nebula/internal/discovery"
	"nebula/internal/sigmap"
	"nebula/internal/workload"
)

// NebulaEpsilons are the two production cutoffs compared from Figure 12 on
// (the 0.4 threshold is excluded there, as in the paper).
var NebulaEpsilons = []float64{0.6, 0.8}

// execMeasurement aggregates one (dataset, L^m, config) cell, averaged per
// annotation: wall time, candidate tuples produced, and tuples scanned (the
// work the time pays for).
type execMeasurement struct {
	avgTime    time.Duration
	avgTuple   float64
	avgScanned float64
}

// runNebulaExec measures keyword-query execution for one ε over one size
// class, averaged across its annotations. shared toggles multi-query
// sharing; delta/k (when spreading) select the focal-spreading variant.
func runNebulaExec(env *Env, size int, epsilon float64, shared, spreading bool, delta, k int) execMeasurement {
	ds := env.Dataset
	specs := ds.WorkloadSet(size, workload.RefClass{})
	d := discovery.New(ds.DB, ds.Meta, ds.Graph)
	var m execMeasurement
	var totalTime time.Duration
	var totalTuples, totalScanned int
	for _, spec := range specs {
		gen := sigmap.NewGenerator(ds.Meta, epsilon)
		queries, _ := gen.Generate(spec.Ann.Body)
		focal := spec.Focal(delta)
		start := time.Now()
		cands, stats, err := d.IdentifyRelatedTuples(queries, focal, discovery.Options{
			Shared:    shared,
			Spreading: spreading,
			K:         k,
		})
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err)) // fixture invariant violated
		}
		totalTime += time.Since(start)
		totalTuples += len(cands)
		totalScanned += stats.Exec.TuplesScanned
	}
	n := len(specs)
	if n > 0 {
		m.avgTime = totalTime / time.Duration(n)
		m.avgTuple = float64(totalTuples) / float64(n)
		m.avgScanned = float64(totalScanned) / float64(n)
	}
	return m
}

// runNaiveExec measures the §4 baseline over one size class.
func runNaiveExec(env *Env, size int) execMeasurement {
	ds := env.Dataset
	specs := ds.WorkloadSet(size, workload.RefClass{})
	d := discovery.New(ds.DB, ds.Meta, ds.Graph)
	var m execMeasurement
	var totalTime time.Duration
	var totalTuples int
	for _, spec := range specs {
		start := time.Now()
		cands, _ := d.NaiveIdentify(spec.Ann.Body, spec.Focal(1))
		totalTime += time.Since(start)
		totalTuples += len(cands)
	}
	if n := len(specs); n > 0 {
		m.avgTime = totalTime / time.Duration(n)
		m.avgTuple = float64(totalTuples) / float64(n)
	}
	return m
}

// Fig12a reproduces Figure 12(a): total execution time of the keyword
// queries for Naive vs Nebula-0.6 vs Nebula-0.8 across datasets and L^m
// sets (no sharing: queries execute in isolation, the paper's default).
// The naive baseline runs only on the smallest annotation set of each
// dataset when full=false — the paper itself could not execute it beyond
// L^50.
func Fig12a(envs []*Env, fullNaive bool) *Table {
	t := &Table{
		Title:  "Figure 12(a) — Keyword-query execution time (ms, avg/annotation)",
		Header: []string{"dataset", "workload", "Naive", "Nebula-0.6", "Nebula-0.8"},
	}
	for _, env := range envs {
		for _, size := range workload.AnnotationSizes {
			naive := "n/a"
			if size == 50 || fullNaive {
				naive = fmtMs(runNaiveExec(env, size).avgTime.Nanoseconds())
			}
			n06 := runNebulaExec(env, size, 0.6, false, false, 1, 0)
			n08 := runNebulaExec(env, size, 0.8, false, false, 1, 0)
			t.Rows = append(t.Rows, []string{
				env.Name, "L^" + fmtI(size), naive,
				fmtMs(n06.avgTime.Nanoseconds()), fmtMs(n08.avgTime.Nanoseconds()),
			})
		}
	}
	return t
}

// Fig12b reproduces Figure 12(b): the number of produced candidate tuples
// for the same configurations.
func Fig12b(envs []*Env, fullNaive bool) *Table {
	t := &Table{
		Title:  "Figure 12(b) — Produced candidate tuples (avg/annotation)",
		Header: []string{"dataset", "workload", "Naive", "Nebula-0.6", "Nebula-0.8"},
	}
	for _, env := range envs {
		for _, size := range workload.AnnotationSizes {
			naive := "n/a"
			if size == 50 || fullNaive {
				naive = fmtF(runNaiveExec(env, size).avgTuple)
			}
			n06 := runNebulaExec(env, size, 0.6, false, false, 1, 0)
			n08 := runNebulaExec(env, size, 0.8, false, false, 1, 0)
			t.Rows = append(t.Rows, []string{
				env.Name, "L^" + fmtI(size), naive,
				fmtF(n06.avgTuple), fmtF(n08.avgTuple),
			})
		}
	}
	return t
}

// Fig13 reproduces Figure 13: the speedup of shared multi-query execution
// over isolated execution, for Nebula-0.6 and Nebula-0.8.
func Fig13(envs []*Env) *Table {
	t := &Table{
		Title: "Figure 13 — Multi-query shared execution (ms, avg/annotation)",
		Header: []string{"dataset", "workload",
			"Nebula-0.6", "Nebula-0.6-shared", "speedup-0.6",
			"Nebula-0.8", "Nebula-0.8-shared", "speedup-0.8"},
	}
	for _, env := range envs {
		for _, size := range workload.AnnotationSizes {
			iso06 := runNebulaExec(env, size, 0.6, false, false, 1, 0)
			sh06 := runNebulaExec(env, size, 0.6, true, false, 1, 0)
			iso08 := runNebulaExec(env, size, 0.8, false, false, 1, 0)
			sh08 := runNebulaExec(env, size, 0.8, true, false, 1, 0)
			t.Rows = append(t.Rows, []string{
				env.Name, "L^" + fmtI(size),
				fmtMs(iso06.avgTime.Nanoseconds()), fmtMs(sh06.avgTime.Nanoseconds()),
				speedup(iso06.avgTime, sh06.avgTime),
				fmtMs(iso08.avgTime.Nanoseconds()), fmtMs(sh08.avgTime.Nanoseconds()),
				speedup(iso08.avgTime, sh08.avgTime),
			})
		}
	}
	return t
}

func speedup(base, opt time.Duration) string {
	if opt <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(opt))
}
