package relational

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	// Name is the physical column name (often abbreviated, e.g. "GID").
	Name string
	// Type is the column's value type.
	Type Type
	// Indexed requests a hash index on exact values.
	Indexed bool
	// FullText requests an inverted token index (string columns only);
	// keyword search over long text columns requires it.
	FullText bool
}

// ForeignKey declares that Column references RefTable.RefColumn (which must
// be RefTable's primary key).
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Schema is the definition of one table.
type Schema struct {
	// Name is the table name.
	Name string
	// Columns in declaration order.
	Columns []Column
	// PrimaryKey is the name of the primary-key column. Required: Nebula's
	// annotation attachments and tuple identities are keyed by (table, PK).
	PrimaryKey string
	// ForeignKeys declared on this table.
	ForeignKeys []ForeignKey

	// colIndex maps a column's declared spelling and its lower-cased form
	// to the column position, so a lookup by the catalog's own name never
	// has to fold case.
	colIndex map[string]int
}

// Validate checks internal consistency and builds lookup structures. It is
// called by Database.CreateTable; calling it twice is harmless.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: empty table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("schema %s: no columns", s.Name)
	}
	s.colIndex = make(map[string]int, 2*len(s.Columns))
	for i, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema %s: column %d has empty name", s.Name, i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := s.colIndex[key]; dup {
			return fmt.Errorf("schema %s: duplicate column %q", s.Name, c.Name)
		}
		if c.FullText && c.Type != TypeString {
			return fmt.Errorf("schema %s: column %q: full-text index requires string type", s.Name, c.Name)
		}
		s.colIndex[key] = i
	}
	// Exact spellings go in after the duplicate check: two columns never
	// share a lowered key, so a declared spelling can only shadow its own
	// column's lowered entry.
	for i, c := range s.Columns {
		s.colIndex[c.Name] = i
	}
	if s.PrimaryKey == "" {
		return fmt.Errorf("schema %s: primary key required", s.Name)
	}
	if _, ok := s.ColumnIndex(s.PrimaryKey); !ok {
		return fmt.Errorf("schema %s: primary key %q is not a column", s.Name, s.PrimaryKey)
	}
	for _, fk := range s.ForeignKeys {
		if _, ok := s.ColumnIndex(fk.Column); !ok {
			return fmt.Errorf("schema %s: foreign key on unknown column %q", s.Name, fk.Column)
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column (case-insensitive)
// and whether it exists. The declared spelling is tried first, so callers
// passing the catalog's own names do not pay for a case fold.
func (s *Schema) ColumnIndex(name string) (int, bool) {
	if s.colIndex == nil {
		_ = s.Validate()
	}
	if i, ok := s.colIndex[name]; ok {
		return i, true
	}
	i, ok := s.colIndex[strings.ToLower(name)]
	return i, ok
}

// Column returns the column definition by name.
func (s *Schema) Column(name string) (Column, bool) {
	i, ok := s.ColumnIndex(name)
	if !ok {
		return Column{}, false
	}
	return s.Columns[i], true
}

// ColumnNames returns the column names in declaration order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// TupleID identifies a tuple globally and stably: table name plus the
// canonical key form of its primary-key value. Annotation attachments, ACG
// nodes, and verification tasks all refer to tuples by TupleID.
type TupleID struct {
	Table string
	Key   string
}

func (id TupleID) String() string { return id.Table + "/" + id.Key }

// Row is a stored tuple.
type Row struct {
	// ID is the tuple's stable identity.
	ID TupleID
	// Values are the cell values in schema column order.
	Values []Value

	schema *Schema
}

// Schema returns the schema of the table the row belongs to.
func (r *Row) Schema() *Schema { return r.schema }

// Get returns the value of the named column.
func (r *Row) Get(column string) (Value, bool) {
	i, ok := r.schema.ColumnIndex(column)
	if !ok {
		return Value{}, false
	}
	return r.Values[i], true
}

// MustGet returns the value of the named column, panicking on unknown
// columns. Use in code paths where the column name was already validated.
func (r *Row) MustGet(column string) Value {
	v, ok := r.Get(column)
	if !ok {
		panic(fmt.Sprintf("relational: table %s has no column %q", r.schema.Name, column))
	}
	return v
}

func (r *Row) String() string {
	parts := make([]string, len(r.Values))
	for i, v := range r.Values {
		parts[i] = r.schema.Columns[i].Name + "=" + v.Str()
	}
	return r.ID.String() + "{" + strings.Join(parts, ", ") + "}"
}
