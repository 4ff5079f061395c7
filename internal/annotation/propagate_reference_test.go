package annotation

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nebula/internal/relational"
)

// propagateReference is Propagate as it stood before insertion ordinals: for
// every row it walks every annotation of the store in insertion order and
// keeps the row's edges that belong to it. Quadratic, and kept only as the
// oracle of the differential test.
func propagateReference(s *Store, rows []*relational.Row, projected []string) []PropagatedRow {
	projSet := make(map[string]struct{}, len(projected))
	for _, c := range projected {
		projSet[strings.ToLower(c)] = struct{}{}
	}
	out := make([]PropagatedRow, 0, len(rows))
	for _, r := range rows {
		pr := PropagatedRow{Row: r}
		atts := s.byTuple[r.ID]
		for _, id := range s.order {
			for _, att := range atts {
				if att.Annotation != id {
					continue
				}
				if att.Column != "" && len(projSet) > 0 {
					if _, ok := projSet[strings.ToLower(att.Column)]; !ok {
						continue
					}
				}
				pr.Annotations = append(pr.Annotations, s.annotations[att.Annotation].a)
				pr.Confidences = append(pr.Confidences, att.Confidence)
			}
		}
		out = append(out, pr)
	}
	return out
}

// propagateJoinReference is PropagateJoin as it stood before insertion
// ordinals: both sides through propagateReference, merged through a
// per-row map.
func propagateJoinReference(s *Store, db *relational.Database, left, right relational.Query, projectedLeft, projectedRight []string) ([]PropagatedJoinRow, error) {
	joined, _, err := db.Join(left, right)
	if err != nil {
		return nil, err
	}
	out := make([]PropagatedJoinRow, 0, len(joined))
	for _, jr := range joined {
		pl := propagateReference(s, []*relational.Row{jr.Left}, projectedLeft)[0]
		pr := propagateReference(s, []*relational.Row{jr.Right}, projectedRight)[0]
		row := PropagatedJoinRow{Left: jr.Left, Right: jr.Right}
		best := make(map[ID]int)
		add := func(a *Annotation, conf float64) {
			if i, ok := best[a.ID]; ok {
				if conf > row.Confidences[i] {
					row.Confidences[i] = conf
				}
				return
			}
			best[a.ID] = len(row.Annotations)
			row.Annotations = append(row.Annotations, a)
			row.Confidences = append(row.Confidences, conf)
		}
		for i, a := range pl.Annotations {
			add(a, pl.Confidences[i])
		}
		for i, a := range pr.Annotations {
			add(a, pr.Confidences[i])
		}
		out = append(out, row)
	}
	return out, nil
}

// geneProteinDB is a Gene table of genes rows and a Protein table of
// proteins rows whose GeneID references a gene (FK Protein.GeneID →
// Gene.GID).
func geneProteinDB(t *testing.T, genes, proteins int) *relational.Database {
	t.Helper()
	db := relational.NewDatabase()
	gt, err := db.CreateTable(&relational.Schema{
		Name: "Gene",
		Columns: []relational.Column{
			{Name: "GID", Type: relational.TypeString},
			{Name: "Name", Type: relational.TypeString},
			{Name: "Family", Type: relational.TypeString, Indexed: true},
		},
		PrimaryKey: "GID",
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := db.CreateTable(&relational.Schema{
		Name: "Protein",
		Columns: []relational.Column{
			{Name: "PID", Type: relational.TypeString},
			{Name: "PName", Type: relational.TypeString},
			{Name: "GeneID", Type: relational.TypeString, Indexed: true},
		},
		PrimaryKey:  "PID",
		ForeignKeys: []relational.ForeignKey{{Column: "GeneID", RefTable: "Gene", RefColumn: "GID"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < genes; i++ {
		if _, err := gt.Insert([]relational.Value{
			relational.String(fmt.Sprintf("JW%04d", i)),
			relational.String(fmt.Sprintf("gene%d", i)),
			relational.String(fmt.Sprintf("F%d", i%3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < proteins; i++ {
		if _, err := pt.Insert([]relational.Value{
			relational.String(fmt.Sprintf("P%04d", i)),
			relational.String(fmt.Sprintf("prot%d", i)),
			relational.String(fmt.Sprintf("JW%04d", (i*7)%genes)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestPropagateMatchesReference holds Propagate and PropagateJoin to the
// quadratic reference over a seeded store whose Add, Attach, Detach and
// Promote calls interleave, so annotation-insertion order, attachment
// order and the order of each tuple's edge list all differ.
func TestPropagateMatchesReference(t *testing.T) {
	db := geneProteinDB(t, 30, 50)
	var tuples []relational.TupleID
	for _, name := range []string{"Gene", "Protein"} {
		for _, r := range db.MustTable(name).Rows() {
			tuples = append(tuples, r.ID)
		}
	}
	columns := map[string][]string{"Gene": {"", "", "Name", "Family"}, "Protein": {"", "", "PName"}}
	projections := [][]string{nil, {"Name"}, {"GID", "Family"}, {"PName"}, {"pname", "GeneID"}}

	rng := rand.New(rand.NewSource(25))
	s := NewStore()
	var ids []ID
	check := func(step int) {
		t.Helper()
		for _, table := range []string{"Gene", "Protein"} {
			rows := db.MustTable(table).Rows()
			for _, proj := range projections {
				if got, want := s.Propagate(rows, proj), propagateReference(s, rows, proj); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Propagate(%s, %v) diverged from the reference", step, table, proj)
				}
			}
		}
		for _, sides := range [][2]string{{"Protein", "Gene"}, {"Gene", "Protein"}} {
			left, right := relational.Query{Table: sides[0]}, relational.Query{Table: sides[1]}
			for _, pl := range projections[:3] {
				for _, pr := range projections[2:] {
					got, err := s.PropagateJoin(db, left, right, pl, pr)
					if err != nil {
						t.Fatal(err)
					}
					want, err := propagateJoinReference(s, db, left, right, pl, pr)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: PropagateJoin(%v, %v, %v, %v) diverged from the reference", step, sides[0], sides[1], pl, pr)
					}
				}
			}
		}
	}
	for step := 0; step < 1500; step++ {
		if step%50 == 49 {
			check(step)
		}
		switch op := rng.Intn(9); {
		case op < 2 || len(ids) == 0:
			// IDs are drawn at random, so insertion order is not ID order.
			id := ID(fmt.Sprintf("ann-%05d", rng.Intn(100000)))
			if s.Add(&Annotation{ID: id, Body: string(id)}) == nil {
				ids = append(ids, id)
			}
		case op < 7:
			tuple := tuples[rng.Intn(len(tuples))]
			cols := columns[tuple.Table]
			att := Attachment{Annotation: ids[rng.Intn(len(ids))], Tuple: tuple, Column: cols[rng.Intn(len(cols))]}
			if rng.Intn(3) == 0 {
				att.Type = TrueAttachment
			} else {
				att.Type, att.Confidence = PredictedAttachment, float64(rng.Intn(100))/100
			}
			if _, err := s.Attach(att); err != nil {
				t.Fatal(err)
			}
		default:
			tuple := tuples[rng.Intn(len(tuples))]
			if edges := s.byTuple[tuple]; len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				if rng.Intn(2) == 0 {
					s.Detach(e.Annotation, tuple)
				} else if err := s.Promote(e.Annotation, tuple); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if s.EdgeCount() < 200 {
		t.Fatalf("only %d edges at the end; the script should build a few hundred", s.EdgeCount())
	}
	check(-1)
}

// TestPropagateJoinOrderContract pins the order of a joined row: the left
// tuple's annotations first, in insertion order, then the right tuple's
// annotations the left one lacks, in insertion order — even where a right
// annotation was inserted before every left one. An annotation on both
// sides keeps its left place and the higher confidence.
func TestPropagateJoinOrderContract(t *testing.T) {
	db := geneProteinDB(t, 1, 1)
	gene := db.MustTable("Gene").Rows()[0].ID
	prot := db.MustTable("Protein").Rows()[0].ID
	s := NewStore()
	for _, id := range []ID{"rightOld", "leftOnly", "both", "rightNew"} {
		if err := s.Add(&Annotation{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, att := range []Attachment{
		{Annotation: "rightNew", Tuple: gene, Type: PredictedAttachment, Confidence: 0.2},
		{Annotation: "both", Tuple: gene, Type: TrueAttachment},
		{Annotation: "rightOld", Tuple: gene, Type: PredictedAttachment, Confidence: 0.4},
		{Annotation: "both", Tuple: prot, Type: PredictedAttachment, Confidence: 0.3},
		{Annotation: "leftOnly", Tuple: prot, Type: PredictedAttachment, Confidence: 0.5},
	} {
		if _, err := s.Attach(att); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.PropagateJoin(db, relational.Query{Table: "Protein"}, relational.Query{Table: "Gene"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("joined rows = %d", len(out))
	}
	var got []string
	for i, a := range out[0].Annotations {
		got = append(got, fmt.Sprintf("%s:%g", a.ID, out[0].Confidences[i]))
	}
	if want := "[leftOnly:0.5 both:1 rightOld:0.4 rightNew:0.2]"; fmt.Sprint(got) != want {
		t.Errorf("joined row = %v, want %s", got, want)
	}
}
