package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// smoke runs every workload once at TinyConfig with half-second windows.
func smoke(t *testing.T, trace int) ([]runReport, string) {
	t.Helper()
	var log bytes.Buffer
	out := t.TempDir() + "/report.json"
	o := &options{
		workload: "all", seed: 42, seconds: 0.5, trace: trace, repeat: 1,
		out: out, dir: t.TempDir(), sz: tinySizes, log: &log,
	}
	ok, err := o.run()
	if err != nil || !ok {
		t.Fatalf("run: ok=%v err=%v\n%s", ok, err, log.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"nproc", "gomaxprocs", "go", "scratch_fs", "window_seconds", "clients"} {
		if _, ok := rep.Env[key]; !ok {
			t.Errorf("env block lacks %q", key)
		}
	}
	return rep.Runs, log.String()
}

func TestSmokeEndToEnd(t *testing.T) {
	runs, log := smoke(t, 0)
	if len(runs) != len(specs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(specs))
	}
	for i, rr := range runs {
		if rr.Workload != specs[i].name {
			t.Errorf("run %d is %q, want %q", i, rr.Workload, specs[i].name)
		}
		if !rr.Correct || rr.Failed != 0 || rr.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", rr.Workload, rr.Correct, rr.Attempted, rr.Failed, rr.Problems)
		}
		if len(rr.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", rr.Workload, len(rr.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := rr.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or unit %q, want %q", rr.Workload, d.name, m.Unit, d.unit)
			}
			if n := len(regexp.MustCompile(`(?m)^metric `+rr.Workload+` `+d.name+` `).FindAllString(log, -1)); n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", rr.Workload, d.name, n)
			}
		}
	}

	// The same seed must give the same inputs.
	again, _ := smoke(t, 0)
	for i := range runs {
		if runs[i].ScriptSHA == "" || runs[i].ScriptSHA != again[i].ScriptSHA {
			t.Errorf("%s: script_sha %q then %q for the same seed", runs[i].Workload, runs[i].ScriptSHA, again[i].ScriptSHA)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	runs, _ := smoke(t, 1)
	for _, rr := range runs {
		if !rr.Correct {
			t.Errorf("%s: problems=%v", rr.Workload, rr.Problems)
		}
		for _, d := range perLayer {
			if m, ok := rr.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s missing or unit %q", rr.Workload, d.name, m.Unit)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json against the tables in metrics.go and
// bed.go, so the contract file and the program cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var listed []*spec
	for _, w := range specs {
		if !w.unlisted {
			listed = append(listed, w)
		}
	}
	if len(doc.Workloads) != len(listed) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the program %d/%d/%d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(listed), len(endToEnd), len(perLayer))
	}
	for i, w := range listed {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		if g := doc.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := doc.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
}
