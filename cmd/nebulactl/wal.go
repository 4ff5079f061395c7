package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"nebula"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// cmdWALInfo inspects a write-ahead log directory without applying
// anything: per-segment frame format, record and byte counts, bytes per
// record, whether the final segment carries a torn tail (the expected
// signature of a crash mid-append, discarded at replay), and a bound on
// the records whose replay still searches the ACG because they log no hop
// distances.
func cmdWALInfo(args []string) error {
	fs := flag.NewFlagSet("wal-info", flag.ExitOnError)
	dir := fs.String("wal", "", "write-ahead log directory to inspect")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("wal-info: --wal DIR is required")
	}
	infos, err := wal.Inspect(*dir, nil)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(infos)
	}
	if len(infos) == 0 {
		fmt.Printf("%s: empty log (no segments)\n", *dir)
		return nil
	}
	var records, searches int
	var bytes int64
	for _, info := range infos {
		records += info.Records
		searches += info.Searches
		bytes += info.Bytes
		tail := ""
		if info.Searches > 0 {
			tail = fmt.Sprintf("  <= %d searches (no hop distances logged)", info.Searches)
		}
		if info.CorruptTail {
			tail += "  TORN TAIL (discarded at replay)"
		}
		perRecord := 0.0
		if info.Records > 0 {
			perRecord = float64(info.Bytes) / float64(info.Records)
		}
		fmt.Printf("  segment %d: %-5s %6d records %10d bytes %7.1f B/record%s\n",
			info.Segment, info.Format, info.Records, info.Bytes, perRecord, tail)
	}
	fmt.Printf("%s: %d segments, %d records, %d bytes, <= %d replay searches\n", *dir, len(infos), records, bytes, searches)
	return nil
}

// cmdCheckpoint folds a WAL's durable history into a snapshot offline —
// the operator recovery path when a daemon died and its log should be
// compacted before the next boot. The starting state is the existing
// snapshot when present (its recorded boundary skips already-folded
// segments), otherwise the deterministic generated dataset; the WAL
// suffix is replayed on top, the folded snapshot written, and the
// covered segments pruned. Run it only while no daemon holds the log.
func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	dir := fs.String("wal", "", "write-ahead log directory to fold and truncate")
	snapPath := fs.String("snapshot", "", "snapshot file: starting state when present, rewritten with the folded state")
	size := fs.String("size", "tiny", "dataset size the daemon served: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "dataset generator seed the daemon used")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *snapPath == "" {
		return fmt.Errorf("checkpoint: --wal DIR and --snapshot FILE are required")
	}
	configureMeta := func(db *nebula.Database) (*nebula.MetaRepository, error) {
		return workload.BuildMeta(db, rand.New(rand.NewSource(*seed)))
	}

	var engine *nebula.Engine
	if f, err := os.Open(*snapPath); err == nil {
		engine, err = nebula.RestoreEngine(f, configureMeta, nebula.DefaultOptions())
		f.Close()
		if err != nil {
			return fmt.Errorf("restore %s: %w", *snapPath, err)
		}
		fmt.Printf("restored %s (%d annotations, %d tuples)\n",
			*snapPath, engine.Store().Len(), engine.DB().TotalRows())
	} else {
		ds, err := generate(*size, *seed)
		if err != nil {
			return err
		}
		engine, err = nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Printf("no snapshot at %s; starting from generated dataset %s seed=%d\n", *snapPath, *size, *seed)
	}

	stats, err := engine.RecoverWAL(*dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("wal recovery: %w", err)
	}
	if stats.CorruptTail {
		fmt.Printf("replay discarded a torn tail (%d bytes)\n", stats.DiscardedBytes)
	}
	fmt.Printf("replayed %d records from %d segments (%d already folded) in %v, %d searches\n",
		stats.Records, stats.Segments, stats.SkippedSegments, stats.Duration, stats.Searches)
	if err := engine.Checkpoint(*snapPath); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := engine.CloseWAL(); err != nil {
		return err
	}
	info, err := os.Stat(*snapPath)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint OK: %s (%d bytes), log truncated behind it\n", *snapPath, info.Size())
	return nil
}
