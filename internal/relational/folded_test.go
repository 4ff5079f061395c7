package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// requireFoldedColumns checks that t keeps a hash column exactly where
// keepsFolded says, one entry per row, each foldCell of its row's cell.
func requireFoldedColumns(t *testing.T, step string, tbl *Table) {
	t.Helper()
	for j, c := range tbl.schema.Columns {
		col := tbl.folded[j]
		if !tbl.keepsFolded(j) {
			if col != nil {
				t.Fatalf("%s: column %s keeps a hash column it should not", step, c.Name)
			}
			continue
		}
		if col == nil || len(col) != tbl.Len() {
			t.Fatalf("%s: column %s keeps %d hashes for %d rows", step, c.Name, len(col), tbl.Len())
		}
		for i, r := range tbl.rows {
			if want := foldCell(&r.Values[j]); col[i] != want {
				t.Fatalf("%s: column %s row %d (%s, cell %q): hash %x, want %x", step, c.Name, i, r.ID, r.Values[j].Str(), col[i], want)
			}
		}
	}
}

// loadCopy rebuilds tbl through LoadTable, its tasks run one at a time.
func loadCopy(t *testing.T, tbl *Table) *Database {
	t.Helper()
	n := tbl.Len()
	cols := make([]ColumnData, len(tbl.schema.Columns))
	for _, r := range tbl.rows {
		for j, v := range r.Values {
			switch v.Kind() {
			case TypeString:
				cols[j].Strings = append(cols[j].Strings, v.Str())
			case TypeInt:
				cols[j].Ints = append(cols[j].Ints, v.i)
			case TypeFloat:
				cols[j].Floats = append(cols[j].Floats, v.f)
			}
		}
	}
	loaded, tasks, err := LoadTable(kernelSchema(), cols, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		task()
	}
	db := NewDatabase()
	if err := db.AddTable(loaded); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFoldedColumnsFollowMutations runs a seeded script of every path that
// changes a table's rows or cells, and after each step holds the hash
// columns to the cells and the folded kernel to the reference pass.
func TestFoldedColumnsFollowMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cell := func() Value { return String(kernelCells[rng.Intn(len(kernelCells))]) }
	// More rows than two segments of the smallest size, so two workers
	// really split the pass, with room for what the script removes.
	db := kernelDB(t, kernelCells, 2*minSegmentRows+600)
	qs := kernelQueries([]string{"", "K", "straße", "TGCT", kernelCells[len(kernelCells)-3]})
	next := 0
	check := func(step string) {
		t.Helper()
		tbl := db.MustTable("T")
		if tbl.Len() <= 2*minSegmentRows {
			t.Fatalf("%s: %d rows no longer split into two segments", step, tbl.Len())
		}
		requireFoldedColumns(t, step, tbl)
		want := runScan(t, db, qs, 1, scanReference)
		for _, workers := range []int{1, 2} {
			for _, mode := range []scanMode{scanFolded, scanCollide} {
				if got := runScan(t, db, qs, workers, mode); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: workers=%d mode=%d diverged from the reference", step, workers, mode)
				}
			}
		}
	}
	randomKey := func() string {
		rows := db.MustTable("T").rows
		return rows[rng.Intn(len(rows))].ID.Key
	}
	check("start")
	for step := 0; step < 32; step++ {
		tbl := db.MustTable("T")
		var name string
		switch op := rng.Intn(10); {
		case op < 3:
			name = "Insert"
			// A burst, so the hash columns grow past their capacity.
			for n := 1 + rng.Intn(40); n > 0; n-- {
				next++
				if _, err := tbl.Insert([]Value{String(fmt.Sprintf("n%05d", next)), cell(), cell(), cell(), Int(int64(rng.Intn(7))), Float(float64(rng.Intn(5)) / 2)}); err != nil {
					t.Fatal(err)
				}
			}
		case op < 6:
			name = "UpdateByKey"
			for n := 1 + rng.Intn(8); n > 0; n-- {
				column, value := []string{"Cell", "Other", "Text"}[rng.Intn(3)], cell()
				if rng.Intn(4) == 0 {
					column, value = "N", Int(int64(rng.Intn(7)))
				}
				if err := tbl.UpdateByKey(randomKey(), column, value); err != nil {
					t.Fatal(err)
				}
			}
		case op < 8:
			name = "DeleteByKey"
			for n := 1 + rng.Intn(30); n > 0; n-- {
				if !tbl.DeleteByKey(randomKey()) {
					t.Fatal("delete of a present key removed nothing")
				}
			}
		case op < 9:
			name = "LoadTable"
			db = loadCopy(t, tbl)
		default:
			name = "Subset"
			var ids []TupleID
			for _, r := range tbl.rows {
				if rng.Intn(16) != 0 {
					ids = append(ids, r.ID)
				}
			}
			mini, err := db.Subset(ids)
			if err != nil {
				t.Fatal(err)
			}
			db = mini
		}
		check(fmt.Sprintf("step %d (%s, %d rows)", step, name, db.MustTable("T").Len()))
	}
}
