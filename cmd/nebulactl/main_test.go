package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCmdGenerate(t *testing.T) {
	if err := cmdGenerate([]string{"--size", "tiny", "--seed", "42"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate([]string{"--size", "nope"}); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestCmdExperimentFastFigures(t *testing.T) {
	for _, fig := range []string{"11b", "11c", "18", "naive"} {
		if err := cmdExperiment([]string{"--figure", fig, "--size", "tiny"}); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
	}
	if err := cmdExperiment([]string{"--figure", "99x", "--size", "tiny"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := cmdExperiment([]string{"--figure", "11b", "--size", "tiny", "--format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExperiment([]string{"--figure", "11b", "--size", "tiny", "--format", "bogus"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestCmdLearn(t *testing.T) {
	if err := cmdLearn([]string{"--size", "tiny"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdDiscover(t *testing.T) {
	if err := cmdDiscover([]string{"--size", "tiny", "--index", "3", "--delta", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDiscover([]string{"--size", "tiny", "--index", "100000"}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestCmdDiscoverTwice runs the same discovery twice in one process: each
// run must grow its engine on its own dataset, not on one an earlier run
// already wrote the workload annotation into.
func TestCmdDiscoverTwice(t *testing.T) {
	args := []string{"--size", "tiny", "--index", "3", "--delta", "1"}
	for run := 1; run <= 2; run++ {
		if err := cmdDiscover(args); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestCmdDiscoverSpreading(t *testing.T) {
	if err := cmdDiscover([]string{"--size", "tiny", "--index", "40", "--spread", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdDemo(t *testing.T) {
	if err := cmdDemo(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "state.nebsnap")
	if err := cmdSnapshot([]string{"--size", "tiny", "--out", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	if err := cmdSnapshot([]string{"--size", "tiny", "--out", "/nonexistent-dir/x.nebsnap"}); err == nil {
		t.Error("unwritable path accepted")
	}
}
