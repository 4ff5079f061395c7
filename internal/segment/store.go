package segment

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"nebula/internal/vfs"
)

// Store owns a directory of immutable segment files plus the manifest
// that makes a consistent subset of them live. Writers (flush,
// compaction) serialize on internal locks; lookups take a read lock for
// their whole duration, which is what makes closing a replaced reader
// safe — the write lock cannot be acquired until every in-flight lookup
// has drained.
type Store struct {
	dir         string
	fs          vfs.FS
	maxSegments int

	// Logf, when set, receives background-compaction and GC errors —
	// they are advisory (the store stays on its previous generation) and
	// must not panic a serving engine. Set before first use.
	Logf func(format string, args ...any)

	mu      sync.RWMutex
	readers []*Reader // oldest first; compaction merges a prefix
	seq     uint64    // StoreSeq of the live manifest
	walSeg  uint64
	manID   uint64 // id of the live manifest file (0 = none yet)
	closed  bool
	// writing names the segment files a flush or compaction is writing
	// outside mu; gcLocked leaves them and their temp files alone.
	writing map[string]struct{}

	nextSeg atomic.Uint64 // next segment file id
	nextMan atomic.Uint64 // next manifest file id

	compactMu sync.Mutex // at most one compaction at a time
	compactWG sync.WaitGroup

	flushes          atomic.Uint64
	flushedPosts     atomic.Uint64
	compactions      atomic.Uint64
	compactErrs      atomic.Uint64
	fallbacks        atomic.Uint64
	resets           atomic.Uint64
	lookups          atomic.Uint64
	segmentsReplaced atomic.Uint64
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Segments         int    `json:"segments"`
	Terms            uint64 `json:"terms"`
	Postings         uint64 `json:"postings"`
	SizeBytes        int64  `json:"size_bytes"`
	Seq              uint64 `json:"seq"`
	WALSegment       uint64 `json:"wal_segment"`
	Flushes          uint64 `json:"flushes"`
	FlushedPostings  uint64 `json:"flushed_postings"`
	Compactions      uint64 `json:"compactions"`
	CompactErrors    uint64 `json:"compact_errors"`
	Fallbacks        uint64 `json:"fallbacks"`
	Resets           uint64 `json:"resets"`
	Lookups          uint64 `json:"lookups"`
	SegmentsReplaced uint64 `json:"segments_replaced"`
}

// Open scans dir for the newest usable manifest and maps its segments.
// A manifest that fails to decode, fails its checksum, or references a
// missing/corrupt segment is skipped (counted as a fallback) and the
// next older one is tried — recovery always lands on the last good
// generation, or an empty store when none survives. maxSegments (min 2)
// is the compaction trigger: more live segments than this schedules a
// background merge of the oldest ones.
func Open(dir string, fsys vfs.FS, maxSegments int) (*Store, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	if maxSegments < 2 {
		maxSegments = 2
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: fsys, maxSegments: maxSegments, writing: map[string]struct{}{}}

	manifests, files, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	// Never reuse a file number present on disk, referenced or not.
	maxSeg, maxMan := uint64(0), uint64(0)
	for name := range files {
		if id, ok := parseNumbered(name, segmentPrefix, segmentSuffix); ok && id > maxSeg {
			maxSeg = id
		}
	}
	if len(manifests) > 0 {
		maxMan = manifests[0]
	}

	for _, id := range manifests {
		m, readers, ok := s.tryManifest(id)
		if !ok {
			s.fallbacks.Add(1)
			continue
		}
		s.readers = readers
		s.seq = m.StoreSeq
		s.walSeg = m.WALSegment
		s.manID = id
		if m.NextSegmentID > maxSeg {
			maxSeg = m.NextSegmentID - 1
		}
		break
	}
	s.nextSeg.Store(maxSeg + 1)
	s.nextMan.Store(maxMan + 1)
	return s, nil
}

// tryManifest loads manifest id and opens every segment it lists.
func (s *Store) tryManifest(id uint64) (Manifest, []*Reader, bool) {
	data, err := readAll(s.fs, filepath.Join(s.dir, manifestName(id)))
	if err != nil {
		return Manifest{}, nil, false
	}
	m, err := decodeManifest(data)
	if err != nil {
		return Manifest{}, nil, false
	}
	readers := make([]*Reader, 0, len(m.Segments))
	for _, info := range m.Segments {
		r, err := OpenFile(filepath.Join(s.dir, info.Name))
		if err != nil || r.Size() != info.Size {
			for _, o := range readers {
				o.Close()
			}
			if err == nil {
				r.Close()
			}
			return Manifest{}, nil, false
		}
		readers = append(readers, r)
	}
	return m, readers, true
}

// Seq returns the checkpoint sequence of the live manifest (0 when the
// store is empty or was reset).
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// WALSegment returns the WAL boundary recorded in the live manifest.
func (s *Store) WALSegment() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walSeg
}

// Segments returns the number of live segments.
func (s *Store) Segments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.readers)
}

// Reset discards all live segments without touching disk: the caller
// has determined (by checkpoint-sequence mismatch) that they belong to
// a different snapshot generation. The files are garbage-collected
// after the next successful flush publishes a manifest without them.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = nil
	s.seq = 0
	s.walSeg = 0
	s.resets.Add(1)
}

// Lookup appends the deduplicated-by-segment postings for term across
// all live segments to dst. Duplicates across segments are possible (an
// updated row reflushed) — the caller deduplicates by identity, which
// it must do anyway to merge the in-heap tail.
func (s *Store) Lookup(term string, dst []Posting) []Posting {
	s.lookups.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.readers {
		dst = r.Lookup(term, dst)
	}
	return dst
}

// Flush publishes one checkpoint generation: an optional new segment
// holding terms (omitted when empty) and a manifest binding the whole
// live set to (seq, walSeg). On any error the store's in-memory and
// on-disk state are unchanged — the caller keeps the flushed postings
// in its tail and the next open falls back to the previous manifest.
// After a successful flush the segment count may exceed the compaction
// threshold; the merge is scheduled on a background goroutine.
func (s *Store) Flush(seq, walSeg uint64, terms map[string][]Posting) error {
	var newReader *Reader
	var segName string
	var postCount uint64
	if len(terms) > 0 {
		data := Build(terms)
		segName = s.reserveSegment()
		defer s.releaseSegment(segName)
		path := filepath.Join(s.dir, segName)
		if err := writeFileAtomic(s.fs, path, data); err != nil {
			return fmt.Errorf("segment flush: %w", err)
		}
		r, err := OpenFile(path)
		if err != nil {
			_ = s.fs.Remove(path)
			return fmt.Errorf("segment flush reopen: %w", err)
		}
		newReader = r
		postCount = r.Postings()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if newReader != nil {
			newReader.Close()
			_ = s.fs.Remove(filepath.Join(s.dir, segName))
		}
		return fmt.Errorf("segment flush: store closed")
	}
	list := s.readers
	if newReader != nil {
		list = append(append([]*Reader(nil), s.readers...), newReader)
	}
	if err := s.writeManifestLocked(seq, walSeg, list); err != nil {
		s.mu.Unlock()
		if newReader != nil {
			newReader.Close()
			_ = s.fs.Remove(filepath.Join(s.dir, segName))
		}
		return fmt.Errorf("segment manifest: %w", err)
	}
	s.readers = list
	s.seq = seq
	s.walSeg = walSeg
	s.flushes.Add(1)
	s.flushedPosts.Add(postCount)
	s.gcLocked()
	needCompact := len(s.readers) > s.maxSegments
	s.mu.Unlock()

	if needCompact {
		s.compactWG.Add(1)
		go func() {
			defer s.compactWG.Done()
			if err := s.Compact(); err != nil {
				s.logf("segment: background compaction: %v", err)
			}
		}()
	}
	return nil
}

// writeManifestLocked publishes list as the live segment set for
// (seq, walSeg). Caller holds s.mu.
func (s *Store) writeManifestLocked(seq, walSeg uint64, list []*Reader) error {
	m := Manifest{
		Version:       manifestVersion,
		StoreSeq:      seq,
		WALSegment:    walSeg,
		NextSegmentID: s.nextSeg.Load(),
	}
	for _, r := range list {
		m.Segments = append(m.Segments, SegmentInfo{
			Name:     filepath.Base(r.Name()),
			Terms:    uint64(r.Terms()),
			Postings: r.Postings(),
			Size:     r.Size(),
		})
	}
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	id := s.nextMan.Add(1) - 1
	if err := writeFileAtomic(s.fs, filepath.Join(s.dir, manifestName(id)), data); err != nil {
		return err
	}
	s.manID = id
	return nil
}

// Compact merges the oldest segments into one so the live set stays at
// or below the threshold, then publishes a manifest for the same
// checkpoint boundary (compaction changes the file layout, never the
// logical content). Safe to call concurrently with flushes and lookups;
// at most one compaction runs at a time.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.RLock()
	n := len(s.readers) - s.maxSegments + 1
	if n < 2 {
		n = 2
	}
	if len(s.readers) < 2 || s.closed {
		s.mu.RUnlock()
		return nil
	}
	if n > len(s.readers) {
		n = len(s.readers)
	}
	victims := append([]*Reader(nil), s.readers[:n]...)
	s.mu.RUnlock()

	// Merge outside any lock: the victims are immutable and cannot be
	// closed underneath us — only compaction retires readers, and
	// compactMu is held.
	merged := make(map[string][]Posting)
	for _, r := range victims {
		r.walk(func(term string, ps []Posting) {
			merged[term] = append(merged[term], ps...)
		})
	}
	data := Build(merged)
	segName := s.reserveSegment()
	defer s.releaseSegment(segName)
	path := filepath.Join(s.dir, segName)
	if err := writeFileAtomic(s.fs, path, data); err != nil {
		s.compactErrs.Add(1)
		return fmt.Errorf("segment compact: %w", err)
	}
	r, err := OpenFile(path)
	if err != nil {
		_ = s.fs.Remove(path)
		s.compactErrs.Add(1)
		return fmt.Errorf("segment compact reopen: %w", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		r.Close()
		_ = s.fs.Remove(path)
		return nil
	}
	// Flushes may have appended segments since the snapshot; the victims
	// are still the list prefix because appends only grow the tail end.
	list := append([]*Reader{r}, s.readers[n:]...)
	if err := s.writeManifestLocked(s.seq, s.walSeg, list); err != nil {
		s.mu.Unlock()
		r.Close()
		_ = s.fs.Remove(path)
		s.compactErrs.Add(1)
		return fmt.Errorf("segment compact manifest: %w", err)
	}
	for _, v := range victims {
		v.Close()
	}
	s.readers = list
	s.compactions.Add(1)
	s.segmentsReplaced.Add(uint64(n))
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// reserveSegment names the next segment file and marks it as being
// written, so a gc run by a concurrent flush or compaction does not delete
// it (or its temp file) before the writer publishes or abandons it.
func (s *Store) reserveSegment() string {
	name := SegmentFileName(s.nextSeg.Add(1) - 1)
	s.mu.Lock()
	s.writing[name] = struct{}{}
	s.mu.Unlock()
	return name
}

// releaseSegment ends reserveSegment's claim: by now the file is live, or
// its writer removed it.
func (s *Store) releaseSegment(name string) {
	s.mu.Lock()
	delete(s.writing, name)
	s.mu.Unlock()
}

// WaitCompaction blocks until any background compaction scheduled by a
// flush has finished.
func (s *Store) WaitCompaction() { s.compactWG.Wait() }

// gcLocked removes manifests older than the previous generation and any
// segment file referenced by neither the live nor the previous manifest
// (the previous one must stay recoverable — it is the fallback if the
// live manifest turns out torn on the next open). Caller holds s.mu.
// Removal errors are advisory.
func (s *Store) gcLocked() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	keep := map[string]struct{}{}
	for _, r := range s.readers {
		keep[filepath.Base(r.Name())] = struct{}{}
	}
	for name := range s.writing {
		keep[name] = struct{}{}
		keep["."+name+".tmp"] = struct{}{}
	}
	// The previous manifest's segments stay on disk as the fallback
	// generation.
	prevID := s.manID - 1
	if data, err := readAll(s.fs, filepath.Join(s.dir, manifestName(prevID))); err == nil {
		if m, err := decodeManifest(data); err == nil {
			for _, info := range m.Segments {
				keep[info.Name] = struct{}{}
			}
		}
	}
	for _, name := range names {
		var stale bool
		switch {
		case strings.HasPrefix(name, ".") && strings.HasSuffix(name, ".tmp"):
			_, keepIt := keep[name]
			stale = !keepIt
		case strings.HasPrefix(name, manifestPrefix):
			if id, ok := parseNumbered(name, manifestPrefix, ""); ok && id+1 < s.manID {
				stale = true
			}
		case strings.HasPrefix(name, segmentPrefix):
			_, keepIt := keep[name]
			stale = !keepIt
		}
		if stale {
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				s.logf("segment: gc %s: %v", name, err)
			}
		}
	}
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Segments:   len(s.readers),
		Seq:        s.seq,
		WALSegment: s.walSeg,
	}
	for _, r := range s.readers {
		st.Terms += uint64(r.Terms())
		st.Postings += r.Postings()
		st.SizeBytes += r.Size()
	}
	s.mu.RUnlock()
	st.Flushes = s.flushes.Load()
	st.FlushedPostings = s.flushedPosts.Load()
	st.Compactions = s.compactions.Load()
	st.CompactErrors = s.compactErrs.Load()
	st.Fallbacks = s.fallbacks.Load()
	st.Resets = s.resets.Load()
	st.Lookups = s.lookups.Load()
	st.SegmentsReplaced = s.segmentsReplaced.Load()
	return st
}

// Close waits for background work and unmaps every segment.
func (s *Store) Close() error {
	s.compactWG.Wait()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = nil
	s.closed = true
	return nil
}

func (s *Store) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
