package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// requireFoldedColumns checks that t keeps a hash column exactly where
// keepsFolded says, one entry per row, each foldCell of its row's cell, and
// beside it the order a fresh sort of the column by (hash, position) gives.
func requireFoldedColumns(t *testing.T, step string, tbl *Table) {
	t.Helper()
	for j, c := range tbl.schema.Columns {
		col := tbl.folded[j]
		if !tbl.keepsFolded(j) {
			if col != nil || tbl.hashOrder[j] != nil {
				t.Fatalf("%s: column %s keeps a hash column or order it should not", step, c.Name)
			}
			continue
		}
		if want := freshHashOrder(col); !reflect.DeepEqual(tbl.hashOrder[j], want) {
			t.Fatalf("%s: column %s keeps hash order %v, a fresh sort gives %v", step, c.Name, tbl.hashOrder[j], want)
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

// freshHashOrder is the oracle of the hash orders: every position of col,
// stably sorted by hash alone.
func freshHashOrder(col []uint64) []int32 {
	order := make([]int32, len(col))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return col[order[a]] < col[order[b]] })
	return order
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

// TestFoldedOrderEdgeCases walks the hash order of one column through the
// mutations at its edges: the first row into an empty table, updates that
// keep the hash (a change of case) or move the cell to and from the zeros
// (non-ASCII text), deletes of the first and last rows, and the last row
// out. After each, the order must be what a fresh sort gives and a lookup
// must answer what the reference pass does.
func TestFoldedOrderEdgeCases(t *testing.T) {
	db := NewDatabase()
	tbl, err := db.CreateTable(kernelSchema())
	if err != nil {
		t.Fatal(err)
	}
	qs := kernelQueries([]string{"abc", "ABC", "é", "straße", "k"})
	check := func(step string) {
		t.Helper()
		requireFoldedColumns(t, step, tbl)
		want := runScan(t, db, qs, 1, scanReference)
		for _, mode := range []scanMode{scanFolded, scanCollide} {
			if got := runScan(t, db, qs, 1, mode); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: mode=%d diverged from the reference", step, mode)
			}
		}
	}
	insert := func(id, cell string) {
		t.Helper()
		if _, err := tbl.Insert([]Value{String(id), String(cell), String(cell), String(cell), Int(3), Float(1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	update := func(id, cell string) {
		t.Helper()
		if err := tbl.UpdateByKey(String(id).Key(), "Cell", String(cell)); err != nil {
			t.Fatal(err)
		}
	}
	check("empty")
	insert("a", "abc")
	check("first insert")
	for i, cell := range []string{"é", "ABC", "K", "abc", "straße", "k"} {
		insert(fmt.Sprint("b", i), cell)
	}
	check("inserts")
	update("a", "ABC")
	check("update keeping the hash")
	update("a", "é")
	check("update to a non-ASCII cell")
	update("b0", "abc")
	check("update from a non-ASCII cell")
	for _, id := range []string{"a", "b5", "b2"} {
		if !tbl.DeleteByKey(String(id).Key()) {
			t.Fatalf("delete %s removed nothing", id)
		}
		check("delete " + id)
	}
	for tbl.Len() > 0 {
		tbl.DeleteByKey(tbl.rows[tbl.Len()-1].ID.Key)
	}
	check("emptied")

	// sortByHash sorts on the upper half of each hash first; hashes that
	// share it and differ below must still come out in full hash order.
	col := []uint64{7<<32 | 5, 7<<32 | 3, 0, 7<<32 | 5, 9 << 32, 7<<32 | 4, 0, 7 << 32, ^uint64(0), 7<<32 | 3}
	if got, want := sortByHash(col), freshHashOrder(col); !reflect.DeepEqual(got, want) {
		t.Fatalf("sortByHash(%x) = %v, want %v", col, got, want)
	}
}
