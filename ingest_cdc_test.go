package nebula_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"nebula"
	"nebula/internal/keyword"
)

// These tests pin the two change-data-capture rules: an update of a column
// no keyword query reads (not the primary key, not an FK column, not one of
// NebulaMeta's target columns) re-queues only the annotations attached to
// its own row; every other mutation re-queues the CDCHops neighbourhood.

// idSet turns a list of annotation IDs into a set.
func idSet(ids []nebula.AnnotationID) map[nebula.AnnotationID]bool {
	out := make(map[nebula.AnnotationID]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// queuedSet returns the annotations with a queued ingest job.
func queuedSet(e *nebula.Engine) map[nebula.AnnotationID]bool {
	out := map[nebula.AnnotationID]bool{}
	for _, j := range e.IngestJobs() {
		out[j.Annotation] = true
	}
	return out
}

// missing lists the members of want that got lacks, sorted.
func missing(want, got map[nebula.AnnotationID]bool) []nebula.AnnotationID {
	var out []nebula.AnnotationID
	for id := range want {
		if !got[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameSet(a, b map[nebula.AnnotationID]bool) bool {
	return len(a) == len(b) && len(missing(a, b)) == 0
}

// readableColumn restates the engine's rule for the workload schema: a
// keyword query can read a column when it is the primary key, an FK column,
// or one of NebulaMeta's target columns.
func readableColumn(e *nebula.Engine, table, column string) bool {
	s := e.DB().MustTable(table).Schema()
	if strings.EqualFold(column, s.PrimaryKey) {
		return true
	}
	for _, fk := range s.ForeignKeys {
		if strings.EqualFold(column, fk.Column) {
			return true
		}
	}
	for _, col := range e.Meta().TargetColumns() {
		if strings.EqualFold(table, col.Table) && strings.EqualFold(column, col.Column) {
			return true
		}
	}
	return false
}

// cdcTargets returns rows of table, in table order, whose own annotations
// are a proper, non-empty subset of their CDCHops neighbourhood's, so the
// two rules queue observably different sets.
func cdcTargets(e *nebula.Engine, table string) []nebula.TupleID {
	var out []nebula.TupleID
	for _, row := range e.DB().MustTable(table).Rows() {
		own := e.Graph().AffectedAnnotations([]nebula.TupleID{row.ID}, 0)
		hops := e.Graph().AffectedAnnotations([]nebula.TupleID{row.ID}, nebula.DefaultIngestCDCHops)
		if len(own) > 0 && len(hops) > len(own) {
			out = append(out, row.ID)
		}
	}
	return out
}

func cell(e *nebula.Engine, id nebula.TupleID, column string) nebula.Value {
	row, ok := e.DB().Lookup(id)
	if !ok {
		panic(fmt.Sprintf("no tuple %s", id))
	}
	return row.MustGet(column)
}

func updateCell(e *nebula.Engine, id nebula.TupleID, column string, v nebula.Value) error {
	return e.MutateDB(func(db *nebula.Database) error {
		return db.MustTable(id.Table).UpdateByKey(id.Key, column, v)
	})
}

// TestIngestCDCColumnEvidence is the rule matrix: which mutations queue
// only their own row's annotations, and which queue the CDCHops set.
func TestIngestCDCColumnEvidence(t *testing.T) {
	hops := nebula.DefaultIngestCDCHops
	type target struct{ gene, prot, otherGene nebula.TupleID }
	// step returns the seeds and radius of the expected set, and the
	// mutation to run.
	type step func(e *nebula.Engine, tg target) (seeds []nebula.TupleID, radius int, run func() error)
	update := func(gene bool, column string, v nebula.Value, radius int) step {
		return func(e *nebula.Engine, tg target) ([]nebula.TupleID, int, func() error) {
			id := tg.prot
			if gene {
				id = tg.gene
			}
			return []nebula.TupleID{id}, radius, func() error { return updateCell(e, id, column, v) }
		}
	}
	var meta *nebula.MetaRepository
	passThrough := func(o *nebula.Options) {
		o.SearcherFactory = func(db *nebula.Database) nebula.KeywordSearcher { return keyword.NewEngine(db, meta) }
	}
	symbolTable := func(o *nebula.Options) { o.SearchTechnique = nebula.TechniqueSymbolTable }
	cases := []struct {
		name string
		opts func(*nebula.Options)
		step step
	}{
		{"Gene.Seq", nil, update(true, "Seq", nebula.String("ACGTACGTTTGA"), 0)},
		{"Gene.Length", nil, update(true, "Length", nebula.Int(123457), 0)},
		{"Gene.Family", nil, update(true, "Family", nebula.String("F99"), 0)},
		{"Gene.Name", nil, update(true, "Name", nebula.String("zyxQ"), hops)},
		{"Protein.PName", nil, update(false, "PName", nebula.String("Zyxwvin"), hops)},
		{"Protein.PType", nil, update(false, "PType", nebula.String("mutant-type"), hops)},
		{"Protein.GeneID", nil, func(e *nebula.Engine, tg target) ([]nebula.TupleID, int, func() error) {
			gid := cell(e, tg.otherGene, "GID")
			return []nebula.TupleID{tg.prot}, hops, func() error { return updateCell(e, tg.prot, "GeneID", gid) }
		}},
		{"insert", nil, func(e *nebula.Engine, tg target) ([]nebula.TupleID, int, func() error) {
			gid := cell(e, tg.gene, "GID")
			row := []nebula.Value{nebula.String("P99999"), nebula.String("Zyxwvin"), nebula.String("enzyme"), gid}
			seeds := []nebula.TupleID{{Table: "Protein", Key: row[0].Key()}, tg.gene}
			return seeds, hops, func() error {
				return e.MutateDB(func(db *nebula.Database) error {
					_, err := db.MustTable("Protein").Insert(row)
					return err
				})
			}
		}},
		{"MutateDB-delete", nil, func(e *nebula.Engine, tg target) ([]nebula.TupleID, int, func() error) {
			return []nebula.TupleID{tg.prot}, hops, func() error {
				return e.MutateDB(func(db *nebula.Database) error {
					if !db.MustTable("Protein").DeleteByKey(tg.prot.Key) {
						return fmt.Errorf("no tuple %s", tg.prot)
					}
					return nil
				})
			}
		}},
		{"DeleteTuple", nil, func(e *nebula.Engine, tg target) ([]nebula.TupleID, int, func() error) {
			return []nebula.TupleID{tg.prot}, hops, func() error {
				_, _, err := e.DeleteTuple(tg.prot)
				return err
			}
		}},
		{"symboltable/Gene.Seq", symbolTable, update(true, "Seq", nebula.String("ACGTACGTTTGA"), hops)},
		{"factory/Gene.Seq", passThrough, update(true, "Seq", nebula.String("ACGTACGTTTGA"), hops)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, ds := ingestFixture(t, c.opts)
			meta = ds.Meta
			genes, prots := cdcTargets(e, "Gene"), cdcTargets(e, "Protein")
			if len(genes) < 2 || len(prots) == 0 {
				t.Fatalf("fixture has %d gene and %d protein targets", len(genes), len(prots))
			}
			tg := target{gene: genes[0], prot: prots[0], otherGene: genes[1]}
			seeds, radius, run := c.step(e, tg)
			want := idSet(e.Graph().AffectedAnnotations(seeds, radius))
			if err := run(); err != nil {
				t.Fatal(err)
			}
			for id := range want {
				if _, ok := e.Store().Get(id); !ok {
					delete(want, id) // the DeleteTuple cascade removed it
				}
			}
			got := queuedSet(e)
			if len(want) == 0 {
				t.Fatal("expected set is empty; the case checks nothing")
			}
			if !sameSet(got, want) {
				t.Fatalf("queued %d annotations, want the %d at radius %d of %v; missing %v, extra %v",
					len(got), len(want), radius, seeds, missing(want, got), missing(got, want))
			}
		})
	}
}

// TestIngestCDCAfterFailedMutation: MutateDB's row operations stand and
// are logged even when fn fails afterwards, so their change-data-capture
// must run too; the call still returns fn's error.
func TestIngestCDCAfterFailedMutation(t *testing.T) {
	e, _ := ingestFixture(t, nil)
	prot := cdcTargets(e, "Protein")[0]
	want := idSet(e.Graph().AffectedAnnotations([]nebula.TupleID{prot}, nebula.DefaultIngestCDCHops))
	errFn := errors.New("fn failed after its update")
	err := e.MutateDB(func(db *nebula.Database) error {
		if err := db.MustTable("Protein").UpdateByKey(prot.Key, "PType", nebula.String("mutant-type")); err != nil {
			return err
		}
		return errFn
	})
	if !errors.Is(err, errFn) {
		t.Fatalf("MutateDB returned %v, want fn's error", err)
	}
	if v := cell(e, prot, "PType").Str(); v != "mutant-type" {
		t.Fatalf("the update did not stand: PType = %q", v)
	}
	if got := queuedSet(e); !sameSet(got, want) {
		t.Fatalf("queued %d annotations after the failed fn, want the %d of the applied update's neighbourhood",
			len(got), len(want))
	}
}

// TestIngestCDCSupersetOfChangedResults is the soundness oracle of the
// inert rule. It rewrites every non-PK column of every table at least
// twice, each time copying the value from another row whose value some
// annotation's body names (so updates of readable columns really move
// results), and renders every annotation's uncached discovery before and
// after each update. Wherever CDC queued less than the CDCHops set, every
// annotation whose discovery changed must have been queued.
func TestIngestCDCSupersetOfChangedResults(t *testing.T) {
	e, _ := ingestFixture(t, nil)
	ctx := context.Background()
	named := map[string]bool{}
	for _, id := range e.Store().IDs() {
		a, _ := e.Store().Get(id)
		for _, w := range strings.FieldsFunc(strings.ToLower(a.Body), func(r rune) bool {
			return !('a' <= r && r <= 'z' || '0' <= r && r <= '9' || r == '-')
		}) {
			named[w] = true
		}
	}
	render := func() map[nebula.AnnotationID]string {
		out := map[nebula.AnnotationID]string{}
		for _, id := range e.Store().IDs() {
			disc, err := e.DiscoverRequest(ctx, id, nebula.RequestOptions{Cache: "off"})
			if err != nil {
				t.Fatalf("discover %s: %v", id, err)
			}
			var b strings.Builder
			for _, c := range disc.Candidates {
				fmt.Fprintf(&b, "%s=%.9f ", c.Tuple.ID, c.Confidence)
			}
			out[id] = b.String()
		}
		return out
	}

	readableChanged, updates := 0, 0
	for _, table := range []string{"Gene", "Protein", "Publication"} {
		tbl := e.DB().MustTable(table)
		targets := cdcTargets(e, table)
		if len(targets) < 2 {
			// Rows no annotation reaches: any two will do.
			targets = []nebula.TupleID{tbl.Rows()[0].ID, tbl.Rows()[1].ID}
		}
		for _, col := range tbl.Schema().Columns {
			if col.Name == tbl.Schema().PrimaryKey {
				continue
			}
			for _, id := range targets[:2] {
				v := copiedValue(tbl.Rows(), cell(e, id, col.Name), col.Name, named)
				if _, err := e.FlushIngest(ctx); err != nil {
					t.Fatal(err)
				}
				before := render()
				own := idSet(e.Graph().AffectedAnnotations([]nebula.TupleID{id}, 0))
				hops := idSet(e.Graph().AffectedAnnotations([]nebula.TupleID{id}, nebula.DefaultIngestCDCHops))
				if err := updateCell(e, id, col.Name, v); err != nil {
					t.Fatal(err)
				}
				updates++
				queued := queuedSet(e)
				after := render()
				changed := map[nebula.AnnotationID]bool{}
				for ann, r := range after {
					if before[ann] != r {
						changed[ann] = true
					}
				}
				what := fmt.Sprintf("%s.%s of %s", table, col.Name, id)
				if !sameSet(queued, hops) {
					if miss := missing(changed, queued); len(miss) > 0 {
						t.Errorf("%s queued %d annotations, narrower than the CDCHops set; "+
							"%d changed discoveries were not queued: %v", what, len(queued), len(miss), miss)
					}
				}
				if readableColumn(e, table, col.Name) {
					readableChanged += len(changed)
					if !sameSet(queued, hops) {
						t.Errorf("%s (readable) queued %d annotations, want the CDCHops set of %d", what, len(queued), len(hops))
					}
					t.Logf("%s (readable): %d discoveries changed, %d of them not queued",
						what, len(changed), len(missing(changed, queued)))
				} else if !sameSet(queued, own) {
					t.Errorf("%s (inert) queued %d annotations, want the row's own %d", what, len(queued), len(own))
				}
			}
		}
	}
	if readableChanged == 0 {
		t.Fatalf("none of %d updates changed a discovery; the oracle checks nothing", updates)
	}
}

// copiedValue picks the new value for one cell: another row's value of the
// column, preferring one that some annotation body names.
func copiedValue(rows []*nebula.Row, old nebula.Value, column string, named map[string]bool) nebula.Value {
	var fallback nebula.Value
	found := false
	for _, r := range rows {
		v := r.MustGet(column)
		if v.Equal(old) {
			continue
		}
		if named[strings.ToLower(v.Str())] {
			return v
		}
		if !found {
			fallback, found = v, true
		}
	}
	return fallback
}
