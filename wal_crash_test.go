package nebula_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"nebula"
	"nebula/internal/faultinject"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// These tests are the crash-fault harness for the WAL: they run a
// deterministic mutation script against a live engine, then simulate
// crashes by truncating or corrupting the log at every interesting byte
// and assert that recovery (baseline snapshot + replay) reconstructs
// EXACTLY the state covered by the durable prefix — corrupt tails
// detected and discarded, never misapplied, and never losing an
// acknowledged record.

const crashSeed = 11

// crashFixture builds the deterministic dataset, an engine over it, and
// the baseline snapshot every recovery layers replay onto. The snapshot
// is taken BEFORE the WAL attaches: the log records mutations since
// attach, so recovery needs the pre-attach state as its floor.
func crashFixture(t testing.TB) (*nebula.Engine, *workload.Dataset, []byte) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(crashSeed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var baseline bytes.Buffer
	if err := e.SaveSnapshot(&baseline); err != nil {
		t.Fatal(err)
	}
	return e, ds, baseline.Bytes()
}

// configureWorkloadMeta rebuilds the NebulaMeta repository for a restored
// workload database (meta is configuration, not snapshot state). The rng
// only feeds a column sample; replay determinism does not depend on it.
func configureWorkloadMeta(db *nebula.Database) (*nebula.MetaRepository, error) {
	return workload.BuildMeta(db, rand.New(rand.NewSource(crashSeed)))
}

// scriptStep is one engine mutation in the deterministic crash script.
type scriptStep struct {
	name string
	run  func() error
}

// crashScript returns the mutation sequence the harness drives: it
// covers every WAL op — bounds changes, annotation add, discovery
// submission, raw row insert/update/delete, expert verdicts both ways,
// oracle resolution, and tuple deletion. Steps are closures so later
// steps can read state (pending VIDs) produced by earlier ones.
func crashScript(e *nebula.Engine, ds *workload.Dataset) []scriptStep {
	specs := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})
	spec0, spec1 := specs[0], specs[1]
	return []scriptStep{
		// Wide uncertain region so discovery parks candidates as pending
		// tasks for the verdict steps below.
		{"set-bounds-wide", func() error {
			return e.SetBounds(nebula.Bounds{Lower: 0.05, Upper: 0.95})
		}},
		{"add-annotation-0", func() error {
			return e.AddAnnotation(spec0.Ann, spec0.Focal(1))
		}},
		{"process-0", func() error {
			_, _, err := e.Process(spec0.Ann.ID)
			return err
		}},
		{"mutate-db", func() error {
			return e.MutateDB(func(db *nebula.Database) error {
				tbl := db.MustTable("Gene")
				row, err := tbl.Insert([]nebula.Value{
					nebula.String("JW99999"), nebula.String("zzzZ"),
					nebula.Int(123), nebula.String("ACGTACGT"), nebula.String("crash"),
				})
				if err != nil {
					return err
				}
				if err := tbl.UpdateByKey(row.ID.Key, "Length", nebula.Int(321)); err != nil {
					return err
				}
				if !tbl.DeleteByKey(row.ID.Key) {
					return fmt.Errorf("inserted gene vanished")
				}
				return nil
			})
		}},
		{"add-annotation-1", func() error {
			return e.AddAnnotation(spec1.Ann, spec1.Focal(1))
		}},
		{"process-1", func() error {
			_, _, err := e.Process(spec1.Ann.ID)
			return err
		}},
		{"verify-lowest-pending", func() error {
			tasks := e.PendingTasks()
			if len(tasks) < 2 {
				return fmt.Errorf("only %d pending tasks; fixture needs >= 2", len(tasks))
			}
			sort.Slice(tasks, func(i, j int) bool { return tasks[i].VID < tasks[j].VID })
			return e.VerifyAttachment(tasks[0].VID)
		}},
		{"reject-highest-pending", func() error {
			tasks := e.PendingTasks()
			sort.Slice(tasks, func(i, j int) bool { return tasks[i].VID < tasks[j].VID })
			return e.RejectAttachment(tasks[len(tasks)-1].VID)
		}},
		{"resolve-oracle-0", func() error {
			_, _, err := e.ResolveWithOracle(spec0.Ann.ID, nebula.IdealOracle(ds.Ideal))
			return err
		}},
		{"delete-tuple", func() error {
			targets := spec1.Hidden(1)
			if len(targets) == 0 {
				targets = spec1.Focal(1)
			}
			_, _, err := e.DeleteTuple(targets[0])
			return err
		}},
		{"set-bounds-narrow", func() error {
			return e.SetBounds(nebula.Bounds{Lower: 0.2, Upper: 0.8})
		}},
	}
}

// runScript runs every step, failing the test on any error.
func runScript(t testing.TB, e *nebula.Engine, ds *workload.Dataset) {
	t.Helper()
	for _, s := range crashScript(e, ds) {
		if err := s.run(); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
	}
}

// fingerprint captures everything recovery is accountable for: the
// snapshot stream (data, annotations, attachments, ACG, bounds, pending
// queue) with the pending tasks and active bounds ALSO dumped explicitly
// through their public APIs, so a snapshot-layer bug cannot silently
// vanish from both sides of a comparison. Two engines with equal
// fingerprints are indistinguishable to every durable API.
//
// The snapshot stream includes the hop profile: every acceptance records
// its hop distance, snapshots carry the counts, and replay rebuilds them
// from the distances the records log, so the profile that drives SelectK
// survives a crash exactly.
func fingerprint(t testing.TB, e *nebula.Engine) string {
	t.Helper()
	var sb strings.Builder
	var snap bytes.Buffer
	if err := e.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sb.Write(snap.Bytes())
	tasks := e.PendingTasks()
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].VID < tasks[j].VID })
	for _, task := range tasks {
		fmt.Fprintf(&sb, "\ntask %d %s %s %.9f %v %v",
			task.VID, task.Annotation, task.Tuple, task.Confidence, task.Evidence, task.Decision)
	}
	b := e.Bounds()
	fmt.Fprintf(&sb, "\nbounds %.9f %.9f", b.Lower, b.Upper)
	return sb.String()
}

// segmentFile reads the single WAL segment the scripted run produced.
func segmentFile(t testing.TB, dir string) (string, []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	if len(names) != 1 {
		t.Fatalf("expected exactly one segment, got %v", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	return names[0], data
}

// recordOffsets scans a segment image and returns the byte offset of
// every frame boundary: offsets[k] is where record k starts, and the
// final entry is the file length. These are exactly the clean crash
// points.
func recordOffsets(t testing.TB, data []byte) []int64 {
	t.Helper()
	offs := []int64{0}
	r := bytes.NewReader(data)
	total := int64(len(data))
	for {
		_, err := wal.DecodeRecord(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("scan at offset %d: %v", total-int64(r.Len()), err)
		}
		offs = append(offs, total-int64(r.Len()))
	}
	return offs
}

// recoverImage restores the baseline snapshot and replays a crafted
// segment image over it — one simulated crash recovery.
func recoverImage(t testing.TB, baseline []byte, segName string, image []byte) (*nebula.Engine, wal.ReplayStats) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), image, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.ReplayWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats
}

// TestWALCrashRecoveryMatrix is the core harness: cut the log at EVERY
// record boundary and at sampled interior bytes of every frame, recover
// each cut twice, and assert
//
//   - boundary cuts replay cleanly to a deterministic state, one new
//     state per record (every record matters);
//   - the full log reconstructs the live engine's exact final state;
//   - interior cuts are detected as a corrupt tail, discarded with exact
//     byte accounting, and recover to the floor boundary's state — a
//     torn record is NEVER partially applied.
func TestWALCrashRecoveryMatrix(t *testing.T) {
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	runScript(t, e, ds)
	finalFP := fingerprint(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	segName, data := segmentFile(t, walDir)
	offs := recordOffsets(t, data)
	n := len(offs) - 1
	if n < 10 {
		t.Fatalf("script produced only %d records; matrix needs a real log", n)
	}
	t.Logf("matrix: %d records, %d bytes", n, len(data))

	// Every record boundary: clean recovery, deterministic, monotone.
	fps := make([]string, n+1)
	for k := 0; k <= n; k++ {
		re, stats := recoverImage(t, baseline, segName, data[:offs[k]])
		if stats.CorruptTail || stats.DiscardedBytes != 0 {
			t.Fatalf("cut at boundary %d flagged corrupt: %+v", k, stats)
		}
		if stats.Records != k || stats.ApplyErrors != 0 || stats.Searches != 0 {
			t.Fatalf("cut at boundary %d: replayed %d records, %d apply errors, %d searches",
				k, stats.Records, stats.ApplyErrors, stats.Searches)
		}
		fps[k] = fingerprint(t, re)
		re2, _ := recoverImage(t, baseline, segName, data[:offs[k]])
		if fingerprint(t, re2) != fps[k] {
			t.Fatalf("recovery at boundary %d is nondeterministic", k)
		}
		if k > 0 && fps[k] == fps[k-1] {
			t.Errorf("record %d had no effect on recovered state", k)
		}
	}
	if fps[n] != finalFP {
		t.Fatal("full-log recovery does not reproduce the live engine's state")
	}

	// Interior bytes of every frame: first byte in, midpoint, last byte
	// short — the torn-write shapes. Each must discard exactly the torn
	// frame and land on the floor boundary's state.
	for k := 0; k < n; k++ {
		width := offs[k+1] - offs[k]
		cuts := []int64{offs[k] + 1, offs[k] + width/2, offs[k+1] - 1}
		for _, p := range cuts {
			if p <= offs[k] || p >= offs[k+1] {
				continue
			}
			re, stats := recoverImage(t, baseline, segName, data[:p])
			if !stats.CorruptTail {
				t.Fatalf("cut inside record %d at byte %d not flagged as corrupt tail", k, p)
			}
			if stats.Records != k {
				t.Fatalf("cut inside record %d at byte %d replayed %d records", k, p, stats.Records)
			}
			if stats.DiscardedBytes != p-offs[k] {
				t.Fatalf("cut inside record %d at byte %d: discarded %d bytes, want %d",
					k, p, stats.DiscardedBytes, p-offs[k])
			}
			if fingerprint(t, re) != fps[k] {
				t.Fatalf("cut inside record %d at byte %d recovered to a state != boundary %d", k, p, k)
			}
		}
	}

	// Bit rot mid-file: a flipped byte in record j's payload discards j
	// and everything after it (within one segment there is no way to
	// know the suffix realigned correctly), landing on boundary j.
	j := n / 2
	rotten := append([]byte(nil), data...)
	rotten[offs[j]+13] ^= 0x40
	re, stats := recoverImage(t, baseline, segName, rotten)
	if !stats.CorruptTail || stats.Records != j {
		t.Fatalf("bit rot in record %d: %+v", j, stats)
	}
	if stats.DiscardedBytes != int64(len(data))-offs[j] {
		t.Fatalf("bit rot in record %d discarded %d bytes, want %d",
			j, stats.DiscardedBytes, int64(len(data))-offs[j])
	}
	if fingerprint(t, re) != fps[j] {
		t.Fatalf("bit rot recovery diverged from boundary %d", j)
	}
}

// TestWALCrashInteriorCorruptionRefusesRecovery splits the scripted log
// into two segments and corrupts the FIRST: records exist after the
// tear, so this is not a crash tail — history has a hole, and recovery
// must refuse rather than silently skip it.
func TestWALCrashInteriorCorruptionRefusesRecovery(t *testing.T) {
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	runScript(t, e, ds)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	_, data := segmentFile(t, walDir)
	offs := recordOffsets(t, data)
	mid := (len(offs) - 1) / 2

	dir := t.TempDir()
	seg1 := append([]byte(nil), data[:offs[mid]]...)
	seg1[offs[0]+13] ^= 0x40 // rot the first record
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000002.log"), data[offs[mid]:], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.ReplayWAL(dir, nil); !errors.Is(err, wal.ErrCorruptInterior) {
		t.Fatalf("interior corruption replayed without refusal: %v", err)
	}
}

// TestWALCrashTornTailHealedAcrossRestarts is the crash → boot → boot
// sequence: a torn tail is discarded on the first boot AND truncated away
// on disk, so after that boot appends to a fresh segment (RecoverWAL with
// no checkpoint), the next boot must not misread the old tear as interior
// corruption and refuse recovery. Before the heal, one crash mid-append
// made the store permanently unrecoverable two restarts later.
func TestWALCrashTornTailHealedAcrossRestarts(t *testing.T) {
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	runScript(t, e, ds)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	segName, data := segmentFile(t, walDir)
	offs := recordOffsets(t, data)
	n := len(offs) - 1
	// Crash: tear mid-way through the final record.
	cut := offs[n-1] + (offs[n]-offs[n-1])/2
	if err := os.WriteFile(filepath.Join(walDir, segName), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot 1: recover, checkpoint nothing, mutate, shut down. The tear is
	// discarded and the segment healed to its durable prefix.
	re, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := re.RecoverWAL(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CorruptTail || stats.Records != n-1 {
		t.Fatalf("boot 1: %+v, want torn tail after %d records", stats, n-1)
	}
	if err := re.SetBounds(nebula.Bounds{Lower: 0.11, Upper: 0.91}); err != nil {
		t.Fatalf("boot 1 mutation: %v", err)
	}
	fp1 := fingerprint(t, re)
	if err := re.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Boot 2: the healed segment 1 plus boot 1's segment must replay
	// cleanly — this recovery used to refuse with ErrCorruptInterior.
	re2, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats2, err := re2.RecoverWAL(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("boot 2 refused recovery: %v", err)
	}
	if stats2.CorruptTail {
		t.Fatalf("boot 2 saw the healed tear resurface: %+v", stats2)
	}
	if got := fingerprint(t, re2); got != fp1 {
		t.Fatal("boot 2 state diverged from boot 1")
	}
	if err := re2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALMutatorsRaceClose drives mutations concurrently with CloseWAL:
// each mutation must either fail cleanly or — if it applied its change —
// commit against the binding it logged through, never ack by finding the
// engine's WAL pointer already detached, and never poison the log by
// fsyncing a closed fd.
func TestWALMutatorsRaceClose(t *testing.T) {
	e, _, _ := crashFixture(t)
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)

	const writers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, writers*20)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lo := 0.01 * float64((w*20+i)%40)
				if err := e.SetBounds(nebula.Bounds{Lower: lo, Upper: lo + 0.5}); err != nil {
					errCh <- err
				}
			}
		}(w)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL racing mutators: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		// Mutations that lose the race to the closing log must surface the
		// closed log, not invent a sync failure or a poisoned log.
		if !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("mutation racing CloseWAL failed with %v, want ErrClosed or success", err)
		}
	}
}

// TestWALCrashFsyncPoisoning injects an fsync failure mid-script: the
// failing operation must surface the error, every later logged mutation
// must be refused (fail-stop — the log is poisoned), and a restart must
// recover exactly the state the engine reached in memory: nothing the
// engine applied before the failure is lost, nothing it refused leaks in.
func TestWALCrashFsyncPoisoning(t *testing.T) {
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	ffs := faultinject.WrapFS(nil, faultinject.FSConfig{FailSyncAt: 4})
	l, err := wal.Open(walDir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWALFS(l, ffs)

	var firstErr error
	var failed int
	for _, s := range crashScript(e, ds) {
		if err := s.run(); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr == nil {
		t.Fatal("no step failed despite injected fsync fault")
	}
	if !errors.Is(firstErr, wal.ErrFailed) || !errors.Is(firstErr, faultinject.ErrInjected) {
		t.Fatalf("first failure lost its cause chain: %v", firstErr)
	}
	if failed < 2 {
		t.Fatalf("only %d steps failed; the poisoned log should refuse all later mutations", failed)
	}
	// The engine's in-memory state froze at the fault (later mutations
	// abort before applying); its durable image must match it.
	liveFP := fingerprint(t, e)
	e.CloseWAL() // close of a poisoned log may itself error; recovery below is the real check

	re2, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rstats, err := re2.ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.ApplyErrors != 0 {
		t.Fatalf("recovery replay hit %d apply errors", rstats.ApplyErrors)
	}
	if fingerprint(t, re2) != liveFP {
		t.Fatal("recovered state diverged from the engine's state at the fault")
	}
}

// TestWALCheckpointRenameCrash fails the checkpoint's atomic rename —
// the snapshot never lands. The checkpoint must report the error, leave
// no snapshot behind, keep the engine fully usable, and the OLD snapshot
// plus the un-pruned log (now spanning the rotation) must still recover
// the complete state.
func TestWALCheckpointRenameCrash(t *testing.T) {
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	ffs := faultinject.WrapFS(nil, faultinject.FSConfig{FailRenameAt: 1})
	l, err := wal.Open(walDir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWALFS(l, ffs)

	steps := crashScript(e, ds)
	half := len(steps) / 2
	for _, s := range steps[:half] {
		if err := s.run(); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := e.Checkpoint(ckpt); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("checkpoint with failing rename: %v", err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed checkpoint left a snapshot file behind")
	}
	// Engine unharmed: the rest of the script runs, spanning the rotated
	// segment.
	for _, s := range steps[half:] {
		if err := s.run(); err != nil {
			t.Fatalf("post-checkpoint step %s: %v", s.name, err)
		}
	}
	liveFP := fingerprint(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := re.ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 2 {
		t.Fatalf("expected the failed checkpoint's rotation to leave 2 segments, replayed %d", stats.Segments)
	}
	if fingerprint(t, re) != liveFP {
		t.Fatal("old snapshot + full log did not recover the complete state")
	}
}

// TestWALCheckpointPruneCrash fails the prune AFTER the checkpoint
// snapshot is durable: stale covered segments survive on disk. The
// recorded coverage boundary must make recovery skip them — replaying
// them onto the new snapshot would double-apply history.
func TestWALCheckpointPruneCrash(t *testing.T) {
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	ffs := faultinject.WrapFS(nil, faultinject.FSConfig{FailRemoveAt: 1})
	l, err := wal.Open(walDir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWALFS(l, ffs)

	var pruneLogs int
	defer nebula.SetWALLogf(func(format string, args ...any) { pruneLogs++ })()

	steps := crashScript(e, ds)
	half := len(steps) / 2
	for _, s := range steps[:half] {
		if err := s.run(); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := e.Checkpoint(ckpt); err != nil {
		t.Fatalf("checkpoint must survive a prune failure: %v", err)
	}
	if pruneLogs == 0 {
		t.Error("prune failure was not surfaced to the log")
	}
	for _, s := range steps[half:] {
		if err := s.run(); err != nil {
			t.Fatalf("post-checkpoint step %s: %v", s.name, err)
		}
	}
	liveFP := fingerprint(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The stale segment is still there alongside the active one.
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected stale + active segments after failed prune, found %d files", len(entries))
	}

	// Recovery from the NEW snapshot: the boundary skips the stale
	// segment — no double apply.
	snapBytes, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	re, err := nebula.RestoreEngine(bytes.NewReader(snapBytes), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := re.ReplayWAL(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedSegments != 1 {
		t.Fatalf("stale covered segment not skipped: %+v", stats)
	}
	if fingerprint(t, re) != liveFP {
		t.Fatal("checkpoint + suffix recovery diverged (double apply?)")
	}

	// And the OLD baseline + the full log (stale + active) also recovers:
	// a crash that loses the new snapshot still has complete history.
	re2, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re2.ReplayWAL(walDir, nil); err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, re2) != liveFP {
		t.Fatal("baseline + full log recovery diverged")
	}
}

// TestWALOracleResolutionMatchesSingleVerdicts runs the crash script up to
// its oracle step twice: once through ResolveWithOracle, once sending the
// same verdicts one at a time. Each acceptance records its hop distance
// from the focal the verdicts before it left, so the two must leave the
// same hop profile — and the same state everywhere else. Replay applies
// verdicts one at a time, so a resolution that measured otherwise would
// also come back different after a crash.
func TestWALOracleResolutionMatchesSingleVerdicts(t *testing.T) {
	run := func(single bool) (*nebula.Engine, int) {
		e, ds, _ := crashFixture(t)
		for _, s := range crashScript(e, ds) {
			if s.name == "resolve-oracle-0" {
				break
			}
			if err := s.run(); err != nil {
				t.Fatalf("step %s: %v", s.name, err)
			}
		}
		id := ds.WorkloadSet(500, workload.RefClass{Min: 4, Max: 6})[0].Ann.ID
		oracle := nebula.IdealOracle(ds.Ideal)
		if !single {
			acc, _, err := e.ResolveWithOracle(id, oracle)
			if err != nil {
				t.Fatal(err)
			}
			return e, len(acc)
		}
		accepted := 0
		for _, task := range e.PendingTasks() { // ordered by VID, as ResolveWithOracle walks them
			if task.Annotation != id {
				continue
			}
			var err error
			if oracle.IsRelated(id, task.Tuple) {
				err = e.VerifyAttachment(task.VID)
				accepted++
			} else {
				err = e.RejectAttachment(task.VID)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return e, accepted
	}
	batch, n := run(false)
	single, _ := run(true)
	if n < 2 {
		t.Fatalf("the oracle accepted %d tasks; the check needs two, so that the first moves the focal", n)
	}
	wantB, wantU := single.Profile().Counts()
	gotB, gotU := batch.Profile().Counts()
	if fmt.Sprint(gotB, gotU) != fmt.Sprint(wantB, wantU) {
		t.Fatalf("ResolveWithOracle left hop profile %v (+%d unreachable); single verdicts left %v (+%d)",
			gotB, gotU, wantB, wantU)
	}
	if fingerprint(t, batch) != fingerprint(t, single) {
		t.Fatal("ResolveWithOracle and single verdicts left different states")
	}
}

// TestWALLegacySegmentReplays replays a segment of the crash script logged
// before Stage-3 records carried hop distances (testdata, written by the
// engine of that time): its acceptances are measured again during replay,
// and the result must match, hop profile included, the replay of this
// engine's own log of the same script — which searches nothing.
func TestWALLegacySegmentReplays(t *testing.T) {
	legacy, err := os.ReadFile("testdata/wal-crashscript-without-hops.log")
	if err != nil {
		t.Fatal(err)
	}
	e, ds, baseline := crashFixture(t)
	walDir := t.TempDir()
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	runScript(t, e, ds)
	liveFP := fingerprint(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	segName, current := segmentFile(t, walDir)

	re, stats := recoverImage(t, baseline, segName, current)
	if stats.Searches != 0 || stats.ApplyErrors != 0 {
		t.Fatalf("replay of this engine's log: %+v, want no searches and no apply errors", stats)
	}
	if fingerprint(t, re) != liveFP {
		t.Fatal("replay of this engine's log diverged from the live engine")
	}
	old, oldStats := recoverImage(t, baseline, segName, legacy)
	if oldStats.Records != stats.Records || oldStats.ApplyErrors != 0 || oldStats.CorruptTail {
		t.Fatalf("legacy replay: %+v; this engine's log replayed %d records", oldStats, stats.Records)
	}
	if oldStats.Searches == 0 {
		t.Fatal("legacy replay searched nothing: its records carry no hop distances")
	}
	if fingerprint(t, old) != liveFP {
		t.Fatal("legacy segment replayed to a different state")
	}
}

// v1PrefixSteps is how many crash-script steps
// testdata/wal-crashscript-v1-prefix.log holds: the segment that commit
// 502b8de, the last engine to write WAL1 frames, logged for them (six
// records: the mutate-db step logs three row operations).
const v1PrefixSteps = 4

// TestWALUpgradeMixedSegments is an upgrade across frame formats: a log
// whose first segment holds WAL1 frames (written before the binary codec)
// is recovered by this engine, which appends the rest of the crash script
// as WAL2 frames in the fresh segment its boot opens. Replaying both
// segments must give the state a single-format log of the whole script
// gives.
func TestWALUpgradeMixedSegments(t *testing.T) {
	v1, err := os.ReadFile("testdata/wal-crashscript-v1-prefix.log")
	if err != nil {
		t.Fatal(err)
	}
	// The whole script logged by this engine alone.
	e, ds, baseline := crashFixture(t)
	single := t.TempDir()
	l, err := wal.Open(single, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	runScript(t, e, ds)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	segName, current := segmentFile(t, single)
	want, _ := recoverImage(t, baseline, segName, current)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	up, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := up.RecoverWAL(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 6 || stats.ApplyErrors != 0 || stats.Searches != 0 {
		t.Fatalf("replay of the WAL1 segment: %+v", stats)
	}
	for _, s := range crashScript(up, ds)[v1PrefixSteps:] {
		if err := s.run(); err != nil {
			t.Fatalf("step %s after the upgrade: %v", s.name, err)
		}
	}
	upFP := fingerprint(t, up)
	if err := up.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	infos, err := wal.Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Format != "wal1" || infos[1].Format != "wal2" || infos[0].Searches+infos[1].Searches != 0 {
		t.Fatalf("segments after the upgrade: %+v, want one WAL1 and one WAL2 segment, no searches", infos)
	}
	mixed, err := nebula.RestoreEngine(bytes.NewReader(baseline), configureWorkloadMeta, nebula.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mstats, err := mixed.ReplayWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mstats.Segments != 2 || mstats.ApplyErrors != 0 || mstats.Searches != 0 || mstats.CorruptTail {
		t.Fatalf("replay of both segments: %+v", mstats)
	}
	wantFP := fingerprint(t, want)
	if upFP != wantFP {
		t.Fatal("the upgraded engine diverged from the single-format run")
	}
	if fingerprint(t, mixed) != wantFP {
		t.Fatal("replay of the WAL1 and WAL2 segments diverged from the single-format log")
	}
}

// TestWALFormatIsFrozen requires this engine to log the crash script as
// testdata/wal-crashscript-v2.log, byte for byte, so that a change to the
// record format cannot pass unnoticed. A deliberate change keeps a decoder
// for the old frames and rewrites the file with
//
//	go test -run TestWALFormatIsFrozen -write-compat wal-crashscript-v2 .
func TestWALFormatIsFrozen(t *testing.T) {
	const golden = "testdata/wal-crashscript-v2.log"
	e, ds, _ := crashFixture(t)
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(l)
	runScript(t, e, ds)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	_, got := segmentFile(t, dir)
	if *writeCompat == "wal-crashscript-v2" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("wrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("the crash script logged %d bytes, %s holds %d; first difference at byte %d", len(got), golden, len(want), i)
	}
	if len(want) > 16<<10 {
		t.Fatalf("%s is %d bytes; keep it under 16 KiB", golden, len(want))
	}
}
