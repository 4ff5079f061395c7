package experiment

import (
	"strings"
	"time"

	"nebula/internal/sigmap"
	"nebula/internal/workload"
)

// Epsilons are the cutoff thresholds evaluated in Figure 11.
var Epsilons = []float64{0.4, 0.6, 0.8}

// fig11Run holds the aggregated Stage-1 measurements for one (L^m, ε)
// cell, averaged over the cell's annotations as the paper does.
type fig11Run struct {
	size    int
	epsilon float64

	mapGen     time.Duration
	contextAdj time.Duration
	queryGen   time.Duration
	queries    float64

	falsePositivePct float64
	falseNegativePct float64
}

// runFig11 executes query generation for every workload annotation of each
// size class under one ε and aggregates the measurements.
func runFig11(env *Env, epsilon float64) []fig11Run {
	var out []fig11Run
	for _, size := range workload.AnnotationSizes {
		specs := env.Dataset.WorkloadSet(size, workload.RefClass{})
		run := fig11Run{size: size, epsilon: epsilon}
		var totalQueries, fpQueries, refs, missedRefs int
		for _, spec := range specs {
			gen := sigmap.NewGenerator(env.Dataset.Meta, epsilon)
			queries, stats := gen.Generate(spec.Ann.Body)
			run.mapGen += stats.MapGeneration
			run.contextAdj += stats.ContextAdjustment
			run.queryGen += stats.QueryGeneration
			totalQueries += len(queries)

			// Judge the queries against the generator's ground truth
			// (Figure 11c): a query is a true positive iff one of its value
			// keywords is an embedded reference keyword; an embedded
			// reference is missed iff no query carries its keyword.
			truth := make(map[string]bool, len(spec.RefKeywords))
			for _, kw := range spec.RefKeywords {
				truth[strings.ToLower(kw)] = true
			}
			covered := make(map[string]bool)
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
					missedRefs++
				}
			}
		}
		n := time.Duration(len(specs))
		if n > 0 {
			run.mapGen /= n
			run.contextAdj /= n
			run.queryGen /= n
			run.queries = float64(totalQueries) / float64(len(specs))
		}
		if totalQueries > 0 {
			run.falsePositivePct = 100 * float64(fpQueries) / float64(totalQueries)
		}
		if refs > 0 {
			run.falseNegativePct = 100 * float64(missedRefs) / float64(refs)
		}
		out = append(out, run)
	}
	return out
}

// Fig11a reproduces Figure 11(a): the query-generation time split into the
// three phases (signature-map generation, overlay + context adjustment,
// query generation), per L^m and ε.
func Fig11a(env *Env) *Table {
	t := &Table{
		Title:  "Figure 11(a) — Query generation time by phase (" + env.Name + ")",
		Header: []string{"workload", "epsilon", "maps_ms", "context_ms", "queries_ms", "total_ms"},
	}
	for _, eps := range Epsilons {
		for _, run := range runFig11(env, eps) {
			total := run.mapGen + run.contextAdj + run.queryGen
			t.Rows = append(t.Rows, []string{
				"L^" + fmtI(run.size), fmtF(run.epsilon),
				fmtMs(run.mapGen.Nanoseconds()), fmtMs(run.contextAdj.Nanoseconds()),
				fmtMs(run.queryGen.Nanoseconds()), fmtMs(total.Nanoseconds()),
			})
		}
	}
	return t
}

// Fig11b reproduces Figure 11(b): the number of generated keyword queries
// per L^m and ε.
func Fig11b(env *Env) *Table {
	t := &Table{
		Title:  "Figure 11(b) — Number of generated keyword queries (" + env.Name + ")",
		Header: []string{"workload", "epsilon", "avg_queries"},
	}
	for _, eps := range Epsilons {
		for _, run := range runFig11(env, eps) {
			t.Rows = append(t.Rows, []string{
				"L^" + fmtI(run.size), fmtF(run.epsilon), fmtF(run.queries),
			})
		}
	}
	return t
}

// Fig11c reproduces Figure 11(c): the percentage of generated queries that
// are not embedded references (false positives) and of embedded references
// not captured by any query (false negatives).
func Fig11c(env *Env) *Table {
	t := &Table{
		Title:  "Figure 11(c) — Query false positives / false negatives % (" + env.Name + ")",
		Header: []string{"workload", "epsilon", "FP_pct", "FN_pct"},
	}
	for _, eps := range Epsilons {
		for _, run := range runFig11(env, eps) {
			t.Rows = append(t.Rows, []string{
				"L^" + fmtI(run.size), fmtF(run.epsilon),
				fmtF(run.falsePositivePct), fmtF(run.falseNegativePct),
			})
		}
	}
	return t
}
