package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func encoded(t *testing.T) []byte {
	t.Helper()
	_, snap := capture(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallStream is a full state (two cell types besides strings, true and
// predicted edges, a graph, a profile, manual-focal lists) in few enough
// bytes to damage every one of them in turn.
func smallStream(t *testing.T) []byte {
	t.Helper()
	snap, err := Capture(fuzzState(t, 6, 4, 3, 0.25, 99))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opaque hides a reader's Len and Seek, as a pipe or a network body would.
type opaque struct{ r io.Reader }

func (o opaque) Read(p []byte) (int, error) { return o.r.Read(p) }

// requireRefused loads a damaged stream through both payload paths (a
// reader that can say how much it holds, and one that cannot) and through
// the full restore: each must fail, and the restore must hand back no
// partly built state.
func requireRefused(t *testing.T, what string, damaged []byte, wantCorrupt bool) {
	t.Helper()
	for name, r := range map[string]io.Reader{"sized": bytes.NewReader(damaged), "opaque": opaque{bytes.NewReader(damaged)}} {
		_, err := Load(r)
		if err == nil {
			t.Fatalf("%s (%s reader): loaded", what, name)
		}
		if wantCorrupt && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s (%s reader): error %v is not ErrCorrupt", what, name, err)
		}
	}
	st, _, _, err := RestoreFrom(bytes.NewReader(damaged), 2)
	if err == nil {
		t.Fatalf("%s: restored", what)
	}
	if st.DB != nil || st.Store != nil || st.Graph != nil {
		t.Fatalf("%s: restore failed with %v but returned a partly built state", what, err)
	}
}

// TestEveryByteFlipIsRefused damages each byte of a snapshot in turn, once
// in every bit and once in one. Whatever it hits (magic, version, payload
// length, section count, a section's length, its checksum, its body) the
// stream is refused; everywhere but the version field, as ErrCorrupt.
func TestEveryByteFlipIsRefused(t *testing.T) {
	data := smallStream(t)
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for off := range data {
		inVersion := off >= len(magic) && off < len(magic)+4
		for _, mask := range []byte{0xFF, 1 << (off % 8)} {
			mut := bytes.Clone(data)
			mut[off] ^= mask
			requireRefused(t, fmt.Sprintf("flip of byte %d with %#02x", off, mask), mut, !inVersion)
		}
	}
}

// TestEveryTruncationIsRefused cuts a snapshot at every length.
func TestEveryTruncationIsRefused(t *testing.T) {
	data := smallStream(t)
	for cut := 0; cut < len(data); cut++ {
		requireRefused(t, fmt.Sprintf("cut at %d", cut), data[:cut], true)
	}
}

func TestLoadDetectsTruncation(t *testing.T) {
	data := encoded(t)
	for _, cut := range []int{len(magic) + 3, len(magic) + 16, headerLen + 5, len(data) / 2, len(data) - 1} {
		requireRefused(t, "large stream cut", data[:cut], true)
	}
}

func TestLoadDetectsBitFlips(t *testing.T) {
	data := encoded(t)
	// The first section's length and checksum, a byte of every kind of
	// section, the last byte.
	for _, off := range []int{headerLen, headerLen + 9, headerLen + frameLen + 4, len(data) / 3, len(data) / 2, len(data) - 1} {
		flipped := bytes.Clone(data)
		flipped[off] ^= 0x40
		requireRefused(t, "large stream flip", flipped, true)
	}
}

// TestLengthFieldsDoNotSizeAllocations pins the out-of-memory the fuzzer
// once found: a damaged payload length, or section length, of terabytes is
// refused after allocating no more than the bytes that were really there.
func TestLengthFieldsDoNotSizeAllocations(t *testing.T) {
	data := smallStream(t)
	huge := bytes.Clone(data)
	binary.LittleEndian.PutUint64(huge[len(magic)+4:], 1<<40)
	section := bytes.Clone(data)
	binary.LittleEndian.PutUint64(section[headerLen:], 1<<40)
	for name, mut := range map[string][]byte{"payload length": huge, "section length": section} {
		for reader, open := range map[string]func() io.Reader{
			"sized":  func() io.Reader { return bytes.NewReader(mut) },
			"opaque": func() io.Reader { return opaque{bytes.NewReader(mut)} },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(open())
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s reader: error %v is not ErrCorrupt", name, reader, err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Errorf("%s, %s reader: allocated %d bytes for a %d-byte stream", name, reader, grown, len(mut))
			}
		}
	}
}

func TestLoadDetectsCorruptedMagic(t *testing.T) {
	data := encoded(t)
	for off := 0; off < len(magic); off++ {
		mut := bytes.Clone(data)
		mut[off] ^= 0xFF
		if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("magic byte %d flipped: error %v is not ErrCorrupt", off, err)
		}
	}
	// Short streams (fewer bytes than the magic) are corrupt too.
	if _, err := Load(bytes.NewReader(data[:3])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("3-byte stream: error %v is not ErrCorrupt", err)
	}
}

func TestSaveFileRoundTripAndCleanup(t *testing.T) {
	_, snap := capture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.nebsnap")
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Tables) != len(snap.Tables) || len(loaded.Annotations.Annotation) != len(snap.Annotations.Annotation) {
		t.Error("SaveFile/LoadFile round trip mismatch")
	}
	// Overwrite is atomic and leaves no temp litter behind.
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the snapshot", len(entries))
	}
}

func TestSaveFileFailureLeavesTargetUntouched(t *testing.T) {
	_, snap := capture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.nebsnap")
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A save into a directory that vanishes mid-flight must not destroy the
	// existing file; simulate with an unwritable temp dir via a bogus path
	// whose parent is a file.
	if err := SaveFile(filepath.Join(path, "child.nebsnap"), snap); err == nil {
		t.Fatal("save under a file path should fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save mutated the existing snapshot")
	}
}
