package relational

import "fmt"

// Subset materializes a mini database containing only the tuples identified
// by ids. Each tuple keeps the schema of its own table, exactly as §6.3
// describes the focal-spreading miniDB: "Each tuple in miniDB will follow
// the schema of its own table, and thus creating a materialized mini version
// of the original database."
//
// Unknown ids are skipped silently: the ACG may reference tuples deleted
// from the database since the graph edge was recorded.
func (db *Database) Subset(ids []TupleID) (*Database, error) {
	mini := NewDatabase()
	for _, id := range ids {
		src, ok := db.Table(id.Table)
		if !ok {
			continue
		}
		row, ok := src.GetByKey(id.Key)
		if !ok {
			continue
		}
		dst, ok := mini.Table(id.Table)
		if !ok {
			// Copy the schema by value so the mini database owns its own
			// validated copy (colIndex caches are rebuilt on Validate).
			schemaCopy := *src.schema
			schemaCopy.colIndex = nil
			var err error
			dst, err = mini.CreateTable(&schemaCopy)
			if err != nil {
				return nil, fmt.Errorf("subset: %w", err)
			}
		}
		if _, dup := dst.GetByKey(id.Key); dup {
			continue
		}
		// The row comes from a table with an identical, already-validated
		// schema, so the arity/type checks of Insert are redundant; the
		// fast path shares the value slice and skips them. Spreading
		// materializes a miniDB per annotation, so this path is hot.
		dst.insertValidated(row)
	}
	// One sort per hash column once the rows are in: kept in step row by
	// row, each insert would shift the order, quadratic in the subset.
	for _, name := range mini.order {
		t := mini.tables[name]
		for j, col := range t.folded {
			if col != nil {
				t.hashOrder[j] = sortByHash(col)
			}
		}
	}
	return mini, nil
}
