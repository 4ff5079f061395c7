package main

import (
	"flag"
	"fmt"
	"os"

	"nebula"
	"nebula/internal/meta"
)

// cmdSnapshot saves a generated dataset's engine state to a file, then (as
// a self-check) restores it and prints the restored summary — demonstrating
// the persistence path end to end.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	size := fs.String("size", "tiny", "dataset size: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("out", "nebula-state.nebsnap", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := generate(*size, *seed)
	if err != nil {
		return err
	}
	engine, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		return err
	}
	// Durable save: temp file + fsync + atomic rename, so an interrupted
	// run never leaves a truncated state file under *out. All write and
	// close errors surface here.
	if err := engine.SaveSnapshotFile(*out); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s (%d bytes): %d tuples, %d annotations, %d edges, ACG %d/%d\n",
		*out, info.Size(), ds.DB.TotalRows(), ds.Store.Len(), ds.Store.EdgeCount(),
		ds.Graph.Nodes(), ds.Graph.Edges())

	// Self-check: restore and compare the summary counters.
	r, err := os.Open(*out)
	if err != nil {
		return err
	}
	defer r.Close()
	restored, err := nebula.RestoreEngine(r, func(db *nebula.Database) (*nebula.MetaRepository, error) {
		return meta.NewRepository(db, nil), nil
	}, nebula.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("restore check: %d tuples, %d annotations, %d edges, ACG %d/%d\n",
		restored.DB().TotalRows(), restored.Store().Len(), restored.Store().EdgeCount(),
		restored.Graph().Nodes(), restored.Graph().Edges())
	if restored.DB().TotalRows() != ds.DB.TotalRows() || restored.Store().EdgeCount() != ds.Store.EdgeCount() {
		return fmt.Errorf("restore mismatch")
	}
	fmt.Println("round trip OK")
	return nil
}
