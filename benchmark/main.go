// Command benchmark is Nebula's end-to-end benchmark: three workloads (and a
// fourth that BENCHMARK.json does not list), ten end-to-end metrics each,
// and a traced mode that splits the same workloads into per-layer numbers. See
// README.md beside this file.
//
//	bash benchmark/run.sh --workload discover_cold --seed 42 --seconds 16 --trace 0
//
// prints one line per metric and, last, one JSON object with the keys
// correct, attempted, failed and metrics. It exits non-zero when a
// correctness check does not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is what --out writes: every run of the invocation with its inputs.
type report struct {
	Env  map[string]any `json:"env"`
	Runs []runReport    `json:"runs"`
}

type runReport struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	ScriptSHA string   `json:"script_sha"`
	Problems  []string `json:"problems,omitempty"`
	result
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	dir      string
	sz       sizes
	log      io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the dataset and of the operation script")
	flag.Float64Var(&o.seconds, "seconds", 16, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.repeat, "repeat", 1, "run the selection this many times and print each metric's spread beside its bound")
	flag.StringVar(&o.out, "out", "", "also write every run's metrics, with the environment, to this JSON file")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for scratch data and the span files")
	flag.Parse()
	o.sz, o.log = fullSizes, os.Stdout
	if flag.NArg() != 0 || o.seconds <= 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see --help")
		os.Exit(2)
	}
	ok, err := o.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, w := range specs {
		names[i] = w.name
	}
	return names
}

// run executes the selected workloads and prints their metrics. It reports
// whether every correctness check held.
func (o *options) run() (bool, error) {
	selected := specs
	if o.workload != "all" {
		w := findSpec(o.workload)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*spec{w}
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	env := o.env(scratch)
	fmt.Fprintf(o.log, "# env: %s\n", mustJSON(env))

	rep := report{Env: env}
	allOK := true
	for pass := 0; pass < o.repeat; pass++ {
		for _, w := range selected {
			r := &run{
				w: w, sz: o.sz, seed: o.seed, traced: o.trace == 1, log: o.log,
				window: time.Duration(o.seconds * float64(time.Second)),
				dir:    filepath.Join(scratch, w.name),
			}
			if err := r.execute(); err != nil {
				r.aborted = true
				r.problemf("run aborted: %v", err)
			}
			if r.traced && r.tr != nil {
				path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
				if err := r.tr.writeSpans(path); err != nil {
					return false, err
				}
				r.logf("%d spans of the first %d operations per client written to %s", len(r.tr.kept), maxKeptOps, path)
			}
			rr := r.report()
			o.print(rr)
			rep.Runs = append(rep.Runs, rr)
			allOK = allOK && rr.Correct
			runtime.GC()
		}
	}
	if o.repeat > 1 {
		o.printSpread(rep.Runs)
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, []byte(mustJSON(rep)+"\n"), 0o644); err != nil {
			return false, err
		}
	}
	if len(rep.Runs) == 1 {
		// The single-workload contract: the result object is the last line,
		// and a run that was cut short prints none.
		rr := rep.Runs[0]
		if len(rr.Metrics) > 0 {
			fmt.Fprintln(o.log, mustJSON(rr.result))
		}
	}
	return allOK, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// report turns a finished run into its result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *run) report() runReport {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	rr := runReport{Workload: r.w.name, Seed: r.seed, Traced: r.traced, Problems: r.problems}
	if r.script != nil {
		rr.ScriptSHA = r.script.sha
	}
	rr.Attempted, rr.Failed = r.attempted.Load(), r.failed.Load()
	if rr.Failed > 0 {
		rr.Problems = append(rr.Problems, fmt.Sprintf("%d of %d operations failed", rr.Failed, rr.Attempted))
	}
	if s, ok := r.metrics["setup_s"]; ok && !r.traced && r.sz.strict && s < 1 {
		rr.Problems = append(rr.Problems, fmt.Sprintf("setup_s %.3f below 1 s: set-up too short to time steadily", s))
	}
	if !r.aborted {
		rr.Metrics = make(map[string]value, len(defs))
		for _, d := range defs {
			rr.Metrics[d.name] = value{Value: r.metrics[d.name], Unit: d.unit}
		}
	}
	rr.Correct = len(rr.Problems) == 0
	return rr
}

func (o *options) print(rr runReport) {
	names := make([]string, 0, len(rr.Metrics))
	for name := range rr.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rr.Metrics[name]
		fmt.Fprintf(o.log, "metric %s %s %.6g %s\n", rr.Workload, name, m.Value, m.Unit)
	}
	for _, p := range rr.Problems {
		fmt.Fprintf(o.log, "# %s: CHECK FAILED: %s\n", rr.Workload, p)
	}
	fmt.Fprintf(o.log, "# %s: correct=%v attempted=%d failed=%d\n", rr.Workload, rr.Correct, rr.Attempted, rr.Failed)
}

// printSpread is the noise self-check: for every workload and metric, the
// median and quartiles over the passes and two spreads as shares of the
// median, (q3-q1) as the acceptance check takes it and (max-min), beside the
// metric's bound. A pair whose quartile spread exceeds half its bound is
// flagged.
func (o *options) printSpread(runs []runReport) {
	byKey := map[string][]float64{}
	var order []string
	for _, rr := range runs {
		for name, m := range rr.Metrics {
			key := rr.Workload + " " + name
			if _, seen := byKey[key]; !seen {
				order = append(order, key)
			}
			byKey[key] = append(byKey[key], m.Value)
		}
	}
	sort.Strings(order)
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.name] = d.bound
	}
	fmt.Fprintf(o.log, "# spread over %d passes: workload metric median q1 q3 iqr/median range/median bound\n", o.repeat)
	for _, key := range order {
		vs := byKey[key]
		if len(vs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(vs)
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		iqr, rng := ratio(q3-q1, q2), ratio(sorted[len(sorted)-1]-sorted[0], q2)
		name := key[strings.IndexByte(key, ' ')+1:]
		flag := ""
		bound, bounded := bounds[name]
		if bounded && iqr > bound/2 {
			flag = "  <-- spread above half the bound"
		}
		fmt.Fprintf(o.log, "spread %s %.6g %.6g %.6g %.4f %.4f %.3g%s\n", key, q2, q1, q3, iqr, rng, bound, flag)
	}
}

// env describes the machine and the settings, printed with every output.
func (o *options) env(scratch string) map[string]any {
	clients := map[string]int{}
	for _, w := range specs {
		clients[w.name] = w.clients
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"scratch_fs":     filesystemOf(scratch),
		"window_seconds": o.seconds,
		"clients":        clients,
		"loop":           "closed",
		"wal_sync":       "group",
		"dataset":        fmt.Sprintf("%+v", o.sz.data),
	}
}

// filesystemOf names the filesystem type behind path from the mount table,
// "unknown" where there is none to read.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) >= len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}
