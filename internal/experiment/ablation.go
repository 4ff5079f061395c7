package experiment

import (
	"fmt"
	"strings"
	"time"

	"nebula/internal/discovery"
	"nebula/internal/keyword"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
	"nebula/internal/verification"
	"nebula/internal/workload"
)

// AblationContextAdjustment isolates the §5.2.2 context-based weight
// adjustment: query quality (Figure 11c criteria) with the adjustment
// enabled vs disabled (β1 = β2 = β3 = 0).
func AblationContextAdjustment(env *Env) *Table {
	t := &Table{
		Title:  "Ablation — context-based weight adjustment (" + env.Name + ", eps=0.6)",
		Header: []string{"workload", "variant", "avg_queries", "FP_pct", "FN_pct"},
	}
	for _, size := range workload.AnnotationSizes {
		for _, enabled := range []bool{true, false} {
			specs := env.Dataset.WorkloadSet(size, workload.RefClass{})
			var totalQueries, fpQueries, refs, missed int
			for _, spec := range specs {
				gen := sigmap.NewGenerator(env.Dataset.Meta, 0.6)
				if !enabled {
					gen.Beta1, gen.Beta2, gen.Beta3 = 0, 0, 0
				}
				queries, _ := gen.Generate(spec.Ann.Body)
				totalQueries += len(queries)
				truth := map[string]bool{}
				for _, kw := range spec.RefKeywords {
					truth[strings.ToLower(kw)] = true
				}
				covered := map[string]bool{}
				for _, q := range queries {
					isTP := false
					for _, k := range q.Keywords {
						if truth[strings.ToLower(k.Text)] {
							isTP = true
							covered[strings.ToLower(k.Text)] = true
						}
					}
					if !isTP {
						fpQueries++
					}
				}
				refs += len(spec.RefKeywords)
				for _, kw := range spec.RefKeywords {
					if !covered[strings.ToLower(kw)] {
						missed++
					}
				}
			}
			variant := "adjusted"
			if !enabled {
				variant = "no-adjust"
			}
			fpPct, fnPct := 0.0, 0.0
			if totalQueries > 0 {
				fpPct = 100 * float64(fpQueries) / float64(totalQueries)
			}
			if refs > 0 {
				fnPct = 100 * float64(missed) / float64(refs)
			}
			t.Rows = append(t.Rows, []string{
				"L^" + fmtI(size), variant,
				fmtF(float64(totalQueries) / float64(max(1, len(specs)))),
				fmtF(fpPct), fmtF(fnPct),
			})
		}
	}
	return t
}

// AblationFocalAdjustment isolates the §6.2 focal-based confidence
// adjustment: assessment quality with the ACG reward enabled vs disabled,
// under the no-expert bounds where ranking quality matters most.
func AblationFocalAdjustment(env *Env) *Table {
	ds := env.Dataset
	bounds := verification.Bounds{Lower: 0.5, Upper: 0.5}
	t := &Table{
		Title:  "Ablation — focal-based confidence adjustment (" + env.Name + ", eps=0.6, bounds [0.5,0.5])",
		Header: []string{"variant", "F_N", "F_P", "M_F", "M_H"},
	}
	for _, enabled := range []bool{true, false} {
		specs := ds.WorkloadSet(Fig15Size, workload.RefClass{})
		var per []verification.Assessment
		for _, spec := range specs {
			gen := sigmap.NewGenerator(ds.Meta, 0.6)
			queries, _ := gen.Generate(spec.Ann.Body)
			focal := spec.Focal(1)
			d := discovery.New(ds.DB, ds.Meta, ds.Graph)
			cands, _, err := d.IdentifyRelatedTuples(queries, focal, discovery.Options{
				Shared:          true,
				FocalAdjustment: enabled,
			})
			if err != nil {
				panic(err)
			}
			oracle := verification.NewIdealTupleOracle(spec.Ann.ID, spec.Related)
			per = append(per, verification.Assess(spec.Ann.ID, cands, bounds, oracle,
				len(spec.Related), len(focal)))
		}
		a := verification.Average(per)
		variant := "focal-adjusted"
		if !enabled {
			variant = "no-focal"
		}
		t.Rows = append(t.Rows, []string{variant, fmtF(a.FN), fmtF(a.FP), fmtF(a.MF), fmtF(a.MH)})
	}
	return t
}

// AblationSearchTechnique compares the two pluggable keyword-search
// techniques (§4's black box): the metadata approach of [7] against a
// DBXplorer-style pre-built symbol table. Reported per L^m: average
// execution time, candidates, and recall of the hidden ground truth. The
// symbol table's one-off pre-processing time is reported in the title row.
func AblationSearchTechnique(env *Env) *Table {
	ds := env.Dataset

	prepStart := time.Now()
	symbolEngine := keyword.NewSymbolTableEngine(ds.DB)
	prep := time.Since(prepStart)

	t := &Table{
		Title: fmt.Sprintf("Ablation — search technique (%s, eps=0.6; symbol-table preprocessing %s, %d tokens)",
			env.Name, prep.Round(time.Millisecond), symbolEngine.Symbols()),
		Header: []string{"workload", "technique", "time_ms", "avg_candidates", "recall"},
	}
	techniques := []struct {
		name     string
		searcher func(db *relational.Database) keyword.Searcher
	}{
		{name: "metadata", searcher: nil},
		{name: "symboltable", searcher: func(db *relational.Database) keyword.Searcher {
			if db == ds.DB {
				return symbolEngine
			}
			return keyword.NewSymbolTableEngine(db)
		}},
	}
	for _, size := range workload.AnnotationSizes {
		specs := ds.WorkloadSet(size, workload.RefClass{})
		for _, tech := range techniques {
			d := discovery.New(ds.DB, ds.Meta, ds.Graph)
			d.NewSearcher = tech.searcher
			var dur time.Duration
			var totalCands, hiddenFound, hiddenTotal int
			for _, spec := range specs {
				gen := sigmap.NewGenerator(ds.Meta, 0.6)
				qs, _ := gen.Generate(spec.Ann.Body)
				focal := spec.Focal(1)
				start := time.Now()
				cands, _, err := d.IdentifyRelatedTuples(qs, focal, discovery.Options{Shared: true})
				if err != nil {
					panic(err)
				}
				dur += time.Since(start)
				totalCands += len(cands)
				hidden := map[relational.TupleID]bool{}
				for _, h := range spec.Hidden(1) {
					hidden[h] = true
					hiddenTotal++
				}
				for _, c := range cands {
					if hidden[c.Tuple.ID] {
						hiddenFound++
					}
				}
			}
			n := len(specs)
			recall := 0.0
			if hiddenTotal > 0 {
				recall = float64(hiddenFound) / float64(hiddenTotal)
			}
			t.Rows = append(t.Rows, []string{
				"L^" + fmtI(size), tech.name,
				fmtMs((dur / time.Duration(max(1, n))).Nanoseconds()),
				fmtF(float64(totalCands) / float64(max(1, n))),
				fmtF(recall),
			})
		}
	}
	return t
}
