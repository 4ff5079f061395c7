package nebula

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"time"

	"nebula/internal/snapshot"
	"nebula/internal/vfs"
	"nebula/internal/wal"
)

// AttachWALFS exposes the filesystem-seam variant of AttachWAL so the
// external crash-fault tests can route checkpoint writes through an
// injected filesystem.
func (e *Engine) AttachWALFS(l *wal.Log, fsys vfs.FS) { e.attachWAL(l, fsys) }

// SetWALLogf swaps the non-fatal WAL housekeeping logger and returns a
// restore func, so tests can assert that prune failures are surfaced.
func SetWALLogf(f func(format string, args ...any)) (restore func()) {
	prev := walLogf
	walLogf = f
	return func() { walLogf = prev }
}

// RestoreEngineReference is RestoreEngine over the snapshot package's
// one-insert-at-a-time reference restore: the oracle of the differential
// restore tests.
func RestoreEngineReference(r io.Reader, configureMeta func(*Database) (*MetaRepository, error), opts Options) (*Engine, error) {
	snap, err := snapshot.Load(r)
	if err != nil {
		return nil, err
	}
	st, err := snap.RestoreReference()
	if err != nil {
		return nil, err
	}
	return engineFromState(st, snap.Meta, configureMeta, opts)
}

// DiffRestored names the first part of their state in which two quiescent
// engines differ, or returns "". DeepEqual reaches every unexported field,
// so list order inside every index, edge list and adjacency list counts.
func DiffRestored(a, b *Engine) string {
	// A row hook is a func value, which DeepEqual only ever finds equal to
	// nil; take both off for the comparison.
	for _, e := range []*Engine{a, b} {
		e.db.SetRowMutationHook(nil)
		defer e.refreshRowHook()
	}
	if !reflect.DeepEqual(a.db.TableNames(), b.db.TableNames()) {
		return "table names"
	}
	for _, name := range a.db.TableNames() {
		if !reflect.DeepEqual(a.db.MustTable(name), b.db.MustTable(name)) {
			return "tables"
		}
	}
	var jobs [2][]IngestJob
	for i, e := range []*Engine{a, b} {
		for _, j := range e.IngestJobs() {
			j.EnqueuedAt = time.Time{} // freshness clocks restart at restore
			jobs[i] = append(jobs[i], j)
		}
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"annotation store", a.store, b.store},
		{"ACG", a.graph, b.graph},
		{"hop profile", a.profile, b.profile},
		{"manual-focal map", a.manualFocal, b.manualFocal},
		{"pending tasks", a.manager.PendingTasks(), b.manager.PendingTasks()},
		{"next VID", a.manager.NextVID(), b.manager.NextVID()},
		{"bounds", a.manager.Bounds(), b.manager.Bounds()},
		{"ingest jobs", jobs[0], jobs[1]},
		{"WAL boundary", a.walBaseSegment, b.walBaseSegment},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			return c.name
		}
	}
	return ""
}

// refDiscoveryKey is the discovery cache's key as it was built while the
// key was one formatted string, shard tag included. It defines the
// partition of runs into cache entries that discoveryKey has to reproduce;
// the differential and fuzz tests in cachekey_test.go hold the two together.
func refDiscoveryKey(body string, focal []TupleID, opts Options, k, home int) string {
	var b strings.Builder
	b.Grow(len(body) + 16*len(focal) + 96)
	b.WriteString(strings.Join(strings.Fields(body), " "))
	b.WriteByte(0)
	ids := make([]string, len(focal))
	for i, f := range focal {
		ids[i] = f.String()
	}
	sort.Strings(ids)
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte(1)
	}
	b.WriteByte(0)
	fmt.Fprintf(&b, "%g|%d|%t|%t|%d|%t|%d|%g|%t|%t|%s|%g|%d|%d|%d|%d",
		opts.Epsilon, opts.Alpha, opts.SharedExecution, opts.FocalAdjustment,
		opts.AdjustmentHops, opts.Spreading, k, opts.SpreadingCoverage,
		opts.RequireStableACG, opts.IncludeRelated, opts.SearchTechnique,
		opts.SpamFraction, opts.Budget.MaxQueries, opts.Budget.MaxCandidates,
		opts.Budget.MaxSearchedRows, opts.TopK)
	if !graphDependent(opts) {
		return fmt.Sprintf("s%d|%s", home, b.String())
	}
	return b.String()
}
