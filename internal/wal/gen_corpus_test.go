package wal

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestGenCorpus writes the wal2-* entries of testdata/fuzz/FuzzWALRecord:
// for each sample record, its WAL2 frame, a torn payload, two frames back
// to back, a flipped payload bit and a flipped checksum bit. The seed-*
// entries are the same shapes as WAL1 frames, written by builds that wrote
// that format; they are kept as they are and now exercise the gob shim.
func TestGenCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate the checked-in fuzz corpus")
	}
	dir := "testdata/fuzz/FuzzWALRecord"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	for _, rec := range sampleRecords() {
		frame, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, frame)
		inputs = append(inputs, frame[:len(frame)-3])
		inputs = append(inputs, append(append([]byte(nil), frame...), frame...))
		mut := append([]byte(nil), frame...)
		mut[len(mut)-1] ^= 0x01
		inputs = append(inputs, mut)
		hdr := append([]byte(nil), frame...)
		hdr[4] ^= 0x80 // checksum word
		inputs = append(inputs, hdr)
	}
	for i, in := range inputs {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
		name := fmt.Sprintf("%s/wal2-%03d", dir, i)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries", len(inputs))
}
