package experiment

import (
	"fmt"

	"nebula/internal/workload"
)

// WorkloadSummary reproduces Figure 18's content as a table: the dataset's
// table cardinalities and the workload mixture — for each L^m × L_{i-j}
// cell, the annotation count, average body bytes, and average embedded
// references. The L^50 × L_{7-10} cell shows the substitution the paper's
// footnote describes.
func WorkloadSummary(env *Env) *Table {
	ds := env.Dataset
	t := &Table{
		Title: fmt.Sprintf("Figure 18 — Dataset and workload composition (%s: %d genes, %d proteins, %d publications; ACG %d nodes / %d edges)",
			env.Name,
			ds.DB.MustTable("Gene").Len(),
			ds.DB.MustTable("Protein").Len(),
			ds.DB.MustTable("Publication").Len(),
			ds.Graph.Nodes(), ds.Graph.Edges()),
		Header: []string{"size_class", "ref_class", "annotations", "avg_bytes", "avg_refs"},
	}
	for _, size := range workload.AnnotationSizes {
		for _, rc := range workload.RefClasses {
			specs := ds.WorkloadSet(size, rc)
			var bytes, refs int
			for _, s := range specs {
				bytes += len(s.Ann.Body)
				refs += len(s.Related)
			}
			n := len(specs)
			avgB, avgR := 0.0, 0.0
			if n > 0 {
				avgB = float64(bytes) / float64(n)
				avgR = float64(refs) / float64(n)
			}
			t.Rows = append(t.Rows, []string{
				"L^" + fmtI(size), rc.String(), fmtI(n), fmtF(avgB), fmtF(avgR),
			})
		}
	}
	return t
}
