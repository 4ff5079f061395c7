package relational

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// loadSchema has every index kind next to every cell type: a string primary
// key, a non-unique hash index, two inverted indexes and unindexed numbers.
func loadSchema() *Schema {
	return &Schema{
		Name: "Doc",
		Columns: []Column{
			{Name: "ID", Type: TypeString, Indexed: true},
			{Name: "Family", Type: TypeString, Indexed: true},
			{Name: "Title", Type: TypeString, FullText: true},
			{Name: "Body", Type: TypeString, FullText: true},
			{Name: "Length", Type: TypeInt, Indexed: true},
			{Name: "Score", Type: TypeFloat},
		},
		PrimaryKey: "ID",
	}
}

// loadTexts mixes what the tokeniser and the key fold treat differently:
// upper case, repeats within a cell, connectors, non-ASCII letters whose
// lower-case form changes length, and invalid UTF-8.
var loadTexts = []string{
	"",
	"The gene the GENE the Gene",
	"protein G-Actin binds P12345.2, snake_case_name; trailing dash-",
	"gène número İstanbul Kelvin STRASSE ßſ",
	"ab\xffcd JW0014 \xc3 mid\x80dle",
	"kinase kinase binding kinase",
}

func loadColumns(n int) []ColumnData {
	cols := make([]ColumnData, 6)
	for i := 0; i < n; i++ {
		cols[0].Strings = append(cols[0].Strings, fmt.Sprintf("Doc-%04d", i))
		cols[1].Strings = append(cols[1].Strings, []string{"F1", "f1", "F2", "K3", "K3", "bad\xff"}[i%6])
		cols[2].Strings = append(cols[2].Strings, loadTexts[i%len(loadTexts)])
		cols[3].Strings = append(cols[3].Strings, loadTexts[(i*5+1)%len(loadTexts)]+fmt.Sprintf(" JW%04d", i%17))
		cols[4].Ints = append(cols[4].Ints, int64(i%9))
		cols[5].Floats = append(cols[5].Floats, float64(i)/8)
	}
	return cols
}

func insertSequentially(t *testing.T, s *Schema, cols []ColumnData, n int) *Table {
	t.Helper()
	table, err := newTable(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		values := make([]Value, len(cols))
		for j, c := range s.Columns {
			switch c.Type {
			case TypeString:
				values[j] = String(cols[j].Strings[i])
			case TypeInt:
				values[j] = Int(cols[j].Ints[i])
			case TypeFloat:
				values[j] = Float(cols[j].Floats[i])
			}
		}
		if _, err := table.Insert(values); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

// requireSameTable compares two tables structure by structure, in order.
func requireSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if !reflect.DeepEqual(got.rows, want.rows) {
		t.Fatalf("rows differ")
	}
	if !reflect.DeepEqual(got.byPK, want.byPK) {
		t.Fatalf("primary-key maps differ")
	}
	for j, c := range want.schema.Columns {
		if (got.hash[j] == nil) != (want.hash[j] == nil) || (got.inverted[j] == nil) != (want.inverted[j] == nil) {
			t.Fatalf("column %s: index kinds differ", c.Name)
		}
		if want.hash[j] != nil && !reflect.DeepEqual(got.hash[j].buckets, want.hash[j].buckets) {
			t.Fatalf("column %s: hash buckets differ", c.Name)
		}
		if want.inverted[j] != nil && !reflect.DeepEqual(got.inverted[j].postings, want.inverted[j].postings) {
			for tok, rows := range want.inverted[j].postings {
				if !reflect.DeepEqual(got.inverted[j].postings[tok], rows) {
					t.Errorf("column %s: posting list of %q differs", c.Name, tok)
				}
			}
			t.Fatalf("column %s: posting lists differ (%d vs %d tokens)", c.Name, len(got.inverted[j].postings), len(want.inverted[j].postings))
		}
	}
	if got.Epoch() != want.Epoch() {
		t.Fatalf("epoch %d, want %d", got.Epoch(), want.Epoch())
	}
}

func TestLoadTableMatchesSequentialInserts(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		cols := loadColumns(n)
		want := insertSequentially(t, loadSchema(), cols, n)
		for _, concurrent := range []bool{false, true} {
			got, fills, err := LoadTable(loadSchema(), cols, n)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, fill := range fills {
				if !concurrent {
					fill()
					continue
				}
				wg.Add(1)
				go func() { defer wg.Done(); fill() }()
			}
			wg.Wait()
			requireSameTable(t, got, want)

			// The loaded table is live: the same mutations leave the
			// same state as on the inserted one.
			if n < 7 {
				continue
			}
			twin := insertSequentially(t, loadSchema(), cols, n)
			for _, table := range []*Table{got, twin} {
				if !table.DeleteByKey(table.rows[3].ID.Key) {
					t.Fatal("delete found no row")
				}
				if err := table.UpdateByKey(table.rows[0].ID.Key, "Body", String("fresh İ text the THE")); err != nil {
					t.Fatal(err)
				}
				if err := table.UpdateByKey(table.rows[1].ID.Key, "Family", String("F9")); err != nil {
					t.Fatal(err)
				}
				if _, err := table.Insert([]Value{String("doc-new"), String("F1"), String("the title"), String("a body"), Int(1), Float(2)}); err != nil {
					t.Fatal(err)
				}
			}
			requireSameTable(t, got, twin)
		}
	}
}

func TestLoadTableRejectsWhatInsertRejects(t *testing.T) {
	cols := loadColumns(4)
	cols[0].Strings[2] = "DOC-0000" // folds onto row 0's key
	if _, _, err := LoadTable(loadSchema(), cols, 4); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Errorf("duplicate primary key: %v", err)
	}
	cols = loadColumns(4)
	cols[4].Ints = cols[4].Ints[:3]
	if _, _, err := LoadTable(loadSchema(), cols, 4); err == nil {
		t.Error("short column accepted")
	}
	cols = loadColumns(4)
	cols[5] = ColumnData{Strings: []string{"1", "2", "3", "4"}}
	if _, _, err := LoadTable(loadSchema(), cols, 4); err == nil {
		t.Error("string cells in a float column accepted")
	}
	cols = loadColumns(4)
	cols[5].Ints = []int64{1}
	if _, _, err := LoadTable(loadSchema(), cols, 4); err == nil {
		t.Error("column holding cells of two types accepted")
	}
	if _, _, err := LoadTable(loadSchema(), loadColumns(4)[:5], 4); err == nil {
		t.Error("missing column accepted")
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	values := []Value{Int(0), Int(-42), Float(0.5), Float(-1e300), Float(3)}
	for _, s := range append(loadTexts, "JW0014", "jw0014", "İ", "K", "\xff") {
		values = append(values, String(s))
	}
	buf := []byte("kept")
	for _, v := range values {
		if got := string(v.appendKey(buf)); got != "kept"+v.Key() {
			t.Errorf("appendKey(%#v) = %q, Key() = %q", v, got, v.Key())
		}
	}
}
