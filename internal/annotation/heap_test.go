package annotation

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"nebula/internal/raceflag"
	"nebula/internal/relational"
)

// heapPerAttachmentBudget bounds the bytes a store retains per attachment:
// the Attachment record, its two list entries and its share of the list
// headers, ≈ 144 B on amd64 with go1.24. Keeping a map keyed by EdgeKey
// beside the two lists measured ≈ 243 B.
const heapPerAttachmentBudget = 180

// TestStoreHeapPerAttachment is the resident-size guard: it attaches
// ≥ 20 000 edges from identities allocated beforehand and divides the heap
// the store keeps live by its attachments.
func TestStoreHeapPerAttachment(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(41))
	pool := make([]relational.TupleID, 6000)
	for i := range pool {
		pool[i] = relational.TupleID{Table: "Gene", Key: fmt.Sprintf("s:jw%05d", i)}
	}
	anns := make([]Annotation, 3000)
	var atts []Attachment
	for i := range anns {
		anns[i] = Annotation{ID: ID(fmt.Sprintf("ann-%05d", i)), Body: "x"}
		for k := 4 + rng.Intn(7); k > 0; k-- {
			atts = append(atts, Attachment{Annotation: anns[i].ID, Tuple: pool[rng.Intn(len(pool))],
				Type: PredictedAttachment, Confidence: 0.5})
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for i := range anns {
		if err := s.Add(&anns[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, att := range atts {
		if _, err := s.Attach(att); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	edges := s.EdgeCount()
	runtime.KeepAlive(atts)

	if edges < 20000 {
		t.Fatalf("only %d attachments; the guard needs ≥ 20 000", edges)
	}
	perEdge := float64(after.HeapAlloc-before.HeapAlloc) / float64(edges)
	t.Logf("%d annotations, %d attachments: %.0f B retained per attachment", s.Len(), edges, perEdge)
	if perEdge > heapPerAttachmentBudget {
		t.Errorf("%.0f B retained per attachment, budget %d B", perEdge, heapPerAttachmentBudget)
	}
}
