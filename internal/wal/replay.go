package wal

import (
	"errors"
	"fmt"
	"io"
	"time"

	"nebula/internal/vfs"
)

// ReplayStats reports what a Replay pass found and did.
type ReplayStats struct {
	// Segments counts segment files visited (after FromSegment skipping).
	Segments int
	// SkippedSegments counts segments below FromSegment — history already
	// folded into the snapshot being replayed onto.
	SkippedSegments int
	// Records counts records decoded and handed to the apply callback.
	Records int
	// ApplyErrors counts records whose apply callback returned an error.
	// Replay continues past them: apply errors are deterministic
	// re-executions of operations that also failed on the live engine
	// (the WAL records intent before the engine validates it), so the
	// replayed state still converges on the pre-crash state.
	ApplyErrors int
	// Searches counts the records whose apply still searched the ACG:
	// Stage-3 acceptances logged before records carried the hop distances
	// measured live. A log written since replays with none. Replay itself
	// leaves it zero; the engine's apply fills it in.
	Searches int
	// CorruptTail reports that the LAST segment ended in a torn or
	// corrupt record, which was discarded — the expected signature of a
	// crash mid-append. Replay also truncates the segment file to its
	// durable prefix, so the tear cannot be misjudged as interior
	// corruption once later boots append to fresh segments.
	CorruptTail bool
	// DiscardedBytes counts the bytes of the discarded tail.
	DiscardedBytes int64
	// Duration is the wall time of the replay pass.
	Duration time.Duration
}

// ErrCorruptInterior reports corruption in a non-final segment: records
// exist in later segments, so the tear is not a crash tail — history has a
// hole and replaying past it would misapply every later record. Recovery
// must stop and surface this to the operator. Match with errors.Is.
var ErrCorruptInterior = errors.New("wal: corrupt record in non-final segment")

// ReplayConfig parameterizes Replay.
type ReplayConfig struct {
	// FS is the filesystem seam; nil selects the real OS.
	FS vfs.FS
	// FromSegment skips segments numbered below it — the segment boundary
	// recorded by the snapshot the replay is layered on. Zero replays
	// everything.
	FromSegment uint64
}

// Replay decodes every durable record in dir's segments, ascending, and
// hands each to apply. Torn or corrupt trailing records in the final
// segment are detected by the CRC framing, discarded — never misapplied —
// and the segment file is truncated to its durable prefix: every boot
// appends to a fresh segment, so a tail left in place would read as
// interior corruption (and refuse recovery) one restart later. The same
// corruption found in an interior segment aborts with ErrCorruptInterior.
// Apply errors are counted but do not stop the pass (see
// ReplayStats.ApplyErrors).
func Replay(dir string, cfg ReplayConfig, apply func(*Record) error) (ReplayStats, error) {
	start := time.Now()
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	var stats ReplayStats
	segs, err := ListSegments(fsys, dir)
	if err != nil {
		return stats, err
	}
	// A corrupt tail is only legitimate in the last segment that contains
	// any data at all; find each segment's outcome first, then judge.
	type segResult struct {
		seg       uint64
		records   []*Record
		corruptAt int64 // -1 when clean
		size      int64
	}
	var results []segResult
	for _, seg := range segs {
		if seg < cfg.FromSegment {
			stats.SkippedSegments++
			continue
		}
		res := segResult{seg: seg, corruptAt: -1}
		if err := func() error {
			f, err := fsys.Open(dir + "/" + segmentName(seg))
			if err != nil {
				return fmt.Errorf("wal: open segment %d: %w", seg, err)
			}
			defer f.Close()
			cr := &countingReader{r: f}
			for {
				frameStart := cr.n
				rec, err := DecodeRecord(cr)
				if errors.Is(err, io.EOF) {
					return nil
				}
				if errors.Is(err, ErrCorruptRecord) {
					// The discarded tail starts where the failing frame
					// began, not where decoding gave up.
					res.corruptAt = frameStart
					// Drain to measure the discarded tail.
					rest, _ := io.Copy(io.Discard, cr.r)
					res.size = cr.n + rest
					return nil
				}
				if err != nil {
					return fmt.Errorf("wal: segment %d: %w", seg, err)
				}
				res.records = append(res.records, rec)
			}
		}(); err != nil {
			return stats, err
		}
		stats.Segments++
		results = append(results, res)
	}
	// Judge corruption placement: only the last segment with content may
	// have a torn tail.
	for i, res := range results {
		if res.corruptAt < 0 {
			continue
		}
		for _, later := range results[i+1:] {
			if len(later.records) > 0 || later.corruptAt >= 0 {
				return stats, fmt.Errorf("%w: segment %d torn at byte %d but segment %d has records",
					ErrCorruptInterior, res.seg, res.corruptAt, later.seg)
			}
		}
		stats.CorruptTail = true
		stats.DiscardedBytes += res.size - res.corruptAt
		// Heal the tear on disk, not just in memory: once this boot opens
		// a fresh segment, a tail left behind would make the NEXT boot see
		// corruption in a non-final segment and refuse recovery outright.
		// Failing to truncate is therefore fatal to recovery — proceeding
		// would arm exactly that trap.
		if err := fsys.Truncate(dir+"/"+segmentName(res.seg), res.corruptAt); err != nil {
			return stats, fmt.Errorf("wal: truncate torn segment %d to %d bytes: %w",
				res.seg, res.corruptAt, err)
		}
	}
	for _, res := range results {
		for _, rec := range res.records {
			stats.Records++
			if err := apply(rec); err != nil {
				stats.ApplyErrors++
			}
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// countingReader tracks bytes consumed so a corrupt frame's start offset
// can be reported for DiscardedBytes accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// SegmentInfo describes one segment file for operator tooling (nebulactl
// wal-info).
type SegmentInfo struct {
	Segment uint64 `json:"segment"`
	Bytes   int64  `json:"bytes"`
	Records int    `json:"records"`
	// Format names the frames the segment holds: "wal2" (every frame
	// written since the binary codec), "wal1" (gob frames, written
	// before), "mixed", or empty for a segment without records.
	Format string `json:"format,omitempty"`
	// CorruptTail reports a torn/corrupt trailing record (discarded at
	// replay).
	CorruptTail bool `json:"corrupt_tail,omitempty"`
	// Searches bounds the records whose replay searches the ACG (see
	// ReplayStats.Searches). Only WAL1 frames count: every WAL2 frame was
	// written since records carried hop distances. Among WAL1 frames, a
	// segment holding any record with hop distances was written since
	// records carried them and counts none; otherwise every accepting
	// verdict and every submit with candidates counts, although a submit
	// that accepted nothing does not search.
	Searches int `json:"searches,omitempty"`
}

// Inspect scans dir's segments without applying anything and reports their
// shape — the read-only half of Replay, for tooling.
func Inspect(dir string, fsys vfs.FS) ([]SegmentInfo, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	segs, err := ListSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	for _, seg := range segs {
		info := SegmentInfo{Segment: seg}
		if size, err := fsys.Stat(dir + "/" + segmentName(seg)); err == nil {
			info.Bytes = size
		}
		f, err := fsys.Open(dir + "/" + segmentName(seg))
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %d: %w", seg, err)
		}
		hops := false
		formats := map[uint32]bool{}
		for {
			rec, guard, err := decodeFrame(f)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				info.CorruptTail = true
				break
			}
			info.Records++
			formats[guard] = true
			if guard == frameGuard2 {
				continue
			}
			hops = hops || rec.Hops != nil
			if (rec.Op == OpVerdict && rec.Accept) || (rec.Op == OpSubmit && len(rec.Candidates) > 0) {
				info.Searches++
			}
		}
		f.Close()
		if hops {
			info.Searches = 0
		}
		switch {
		case len(formats) > 1:
			info.Format = "mixed"
		case formats[frameGuard1]:
			info.Format = "wal1"
		case formats[frameGuard2]:
			info.Format = "wal2"
		}
		infos = append(infos, info)
	}
	return infos, nil
}
