// Benchmarks regenerating every table and figure of the paper's evaluation
// (§8). Each BenchmarkFigNN target wraps the corresponding harness entry in
// internal/experiment; the table is printed once per run so that
// `go test -bench=. -benchmem | tee bench_output.txt` captures both the
// figures' rows and the machine cost of producing them.
//
// Dataset selection: NEBULA_BENCH_SIZE=tiny|small|mid|large (default
// small). The paper's D_small/D_mid/D_large sweep of Figures 12–13 runs all
// three when NEBULA_BENCH_ALL_SIZES=1 (several minutes on first generation).
package nebula_test

import (
	"os"
	"sync"
	"testing"

	"nebula/internal/experiment"
)

const benchSeed = 42

func benchSize() string {
	if s := os.Getenv("NEBULA_BENCH_SIZE"); s != "" {
		return s
	}
	return "small"
}

func benchEnv(b *testing.B) *experiment.Env {
	b.Helper()
	env, err := experiment.LoadEnv(benchSize(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func benchEnvs(b *testing.B) []*experiment.Env {
	b.Helper()
	sizes := []string{benchSize()}
	if os.Getenv("NEBULA_BENCH_ALL_SIZES") == "1" {
		sizes = experiment.DatasetSizes
	}
	var envs []*experiment.Env
	for _, s := range sizes {
		env, err := experiment.LoadEnv(s, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		envs = append(envs, env)
	}
	return envs
}

var printOnce sync.Map

// printTables prints the tables once per benchmark name, keeping repeated
// b.N iterations quiet.
func printTables(name string, tables ...*experiment.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	for _, t := range tables {
		t.Print(os.Stdout)
	}
}

// BenchmarkFig11QueryGeneration regenerates Figure 11(a,b,c): Stage-1 query
// generation time by phase, query counts, and query FP/FN quality across
// ε ∈ {0.4, 0.6, 0.8} and the four L^m workloads.
func BenchmarkFig11QueryGeneration(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := experiment.Fig11a(env)
		bt := experiment.Fig11b(env)
		c := experiment.Fig11c(env)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), a, bt, c)
			b.StartTimer()
		}
	}
}

// BenchmarkFig12Execution regenerates Figure 12(a,b): keyword-query
// execution time and produced candidate tuples for Naive vs Nebula-0.6 vs
// Nebula-0.8.
func BenchmarkFig12Execution(b *testing.B) {
	envs := benchEnvs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := experiment.Fig12a(envs, false)
		bt := experiment.Fig12b(envs, false)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), a, bt)
			b.StartTimer()
		}
	}
}

// BenchmarkFig13Sharing regenerates Figure 13: shared multi-query execution
// vs isolated execution.
func BenchmarkFig13Sharing(b *testing.B) {
	envs := benchEnvs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig13(envs)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), t)
			b.StartTimer()
		}
	}
}

// BenchmarkFig14FocalSpreading regenerates Figure 14(a,b): the approximate
// focal-spreading search across Δ ∈ {1,2,3} and K ∈ {2,3,4}.
func BenchmarkFig14FocalSpreading(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := experiment.Fig14a(env)
		bt := experiment.Fig14b(env)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), a, bt)
			b.StartTimer()
		}
	}
}

// BenchmarkFig15Assessment regenerates Figure 15(a): the Definition 7.2
// criteria for the eight configurations under adaptively tuned bounds.
func BenchmarkFig15Assessment(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiment.Fig15a(env, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), t)
			b.StartTimer()
		}
	}
}

// BenchmarkFig15NoExperts regenerates Figure 15(b): the degenerate
// β_lower = β_upper = 0.5 configuration without expert involvement.
func BenchmarkFig15NoExperts(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiment.Fig15b(env)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), t)
			b.StartTimer()
		}
	}
}

// BenchmarkNaiveAssessment regenerates the §8.2 naive-baseline spot check
// ({F_N, F_P, M_F, M_H} for L^50 under the naive search).
func BenchmarkNaiveAssessment(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiment.NaiveAssessment(env)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), t)
			b.StartTimer()
		}
	}
}

// BenchmarkHopProfile regenerates the Figure 7-style hop-distance profile.
func BenchmarkHopProfile(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiment.HopProfileTable(env)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), t)
			b.StartTimer()
		}
	}
}

// BenchmarkAblations runs the two design-choice ablations DESIGN.md calls
// out: context-based weight adjustment and focal-based confidence
// adjustment.
func BenchmarkAblations(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := experiment.AblationContextAdjustment(env)
		f := experiment.AblationFocalAdjustment(env)
		s := experiment.AblationSearchTechnique(env)
		if i == 0 {
			b.StopTimer()
			printTables(b.Name(), c, f, s)
			b.StartTimer()
		}
	}
}

// BenchmarkDatasetGeneration measures the synthetic generator itself (the
// substrate standing in for the UniProt extract).
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A distinct seed defeats the env cache so generation is measured.
		if _, err := experiment.LoadEnv("tiny", int64(1000+i)); err != nil {
			b.Fatal(err)
		}
	}
}
