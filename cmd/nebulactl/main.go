// Command nebulactl drives the Nebula reproduction from the command line:
// it generates the synthetic datasets, runs the per-figure experiment
// harness, and offers an interactive-style demo of the discovery pipeline
// on a single annotation.
//
// Usage:
//
//	nebulactl generate   --size small --seed 42
//	nebulactl experiment --figure 12a --size small [--all-sizes] [--tune] [--full-naive]
//	nebulactl experiment --figure all --size small
//	nebulactl discover   --size tiny --index 3 --delta 1 [--epsilon 0.6] [--spread K]
//	                     [--timeout 50ms] [--max-candidates N] [--max-queries N]
//	                     [--parallelism N] [--cache on|off|bytes]
//	nebulactl wal-info   --wal DIR [--json]
//	nebulactl checkpoint --wal DIR --snapshot FILE [--size tiny] [--seed 42]
//	nebulactl demo
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"nebula"
	"nebula/internal/experiment"
	"nebula/internal/flagcheck"
	"nebula/internal/meta"
	"nebula/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "discover":
		err = cmdDiscover(os.Args[2:])
	case "demo":
		err = cmdDemo()
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "learn":
		err = cmdLearn(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "wal-info":
		err = cmdWALInfo(os.Args[2:])
	case "checkpoint":
		err = cmdCheckpoint(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "nebulactl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nebulactl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `nebulactl — proactive annotation management experiments

commands:
  generate    build a synthetic dataset and print its summary
  experiment  run a figure's experiment harness (11a..15b, 18, naive,
              profile, ablation-context, ablation-focal, ablation-technique,
              all)
  discover    walk one workload annotation through the pipeline
  demo        run the paper's Figure 1 running example
  sql         interactive extended-SQL shell over a generated dataset
  learn       mine ConceptRefs proposals from the existing annotations
  snapshot    save a dataset's engine state to disk and verify the round trip
  wal-info    inspect a write-ahead log directory: segments, records, torn tails
  checkpoint  fold a WAL's durable history into a snapshot offline and
              truncate the log (run only while no daemon holds the log)
`)
}

// generate builds a private dataset of the named size. Every verb that
// grows an engine on the dataset needs its own copy: the engine writes into
// the tables, store and graph it is handed.
func generate(size string, seed int64) (*workload.Dataset, error) {
	cfg, err := workload.SizeConfig(size, seed)
	if err != nil {
		return nil, err
	}
	return workload.Generate(cfg)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	size := fs.String("size", "small", "dataset size: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := generate(*size, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("dataset D_%s (seed %d)\n", *size, *seed)
	for _, t := range ds.DB.TableNames() {
		fmt.Printf("  table %-12s %8d tuples\n", t, ds.DB.MustTable(t).Len())
	}
	fmt.Printf("  annotations (base publications): %d\n", ds.Store.Len())
	fmt.Printf("  true attachment edges:           %d\n", ds.Store.EdgeCount())
	fmt.Printf("  ideal edges (incl. workload):    %d\n", len(ds.Ideal))
	fmt.Printf("  ACG: %d nodes, %d edges, stable=%v\n", ds.Graph.Nodes(), ds.Graph.Edges(), ds.Graph.Stable())
	fmt.Printf("  workload annotations: %d\n", len(ds.Workload))
	m := ds.Store.QualityTrueOnly(ds.Ideal)
	fmt.Printf("  under-annotation: F_N=%.3f F_P=%.3f (%d edges missing)\n",
		m.FalseNegativeRatio, m.FalsePositiveRatio, m.Missing)
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	figure := fs.String("figure", "all", "figure id: 11a 11b 11c 12a 12b 13 14a 14b 15a 15b 18 naive profile ablation-context ablation-focal ablation-technique all")
	size := fs.String("size", "small", "dataset size: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "generator seed")
	allSizes := fs.Bool("all-sizes", false, "run Fig 12/13 over D_small, D_mid, D_large")
	tune := fs.Bool("tune", true, "tune verification bounds with BoundsSetting for Fig 15(a)")
	fullNaive := fs.Bool("full-naive", false, "run the naive baseline on every L^m (slow)")
	format := fs.String("format", "text", "output format: text|csv|json|markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := experiment.LoadEnv(*size, *seed)
	if err != nil {
		return err
	}
	envs := []*experiment.Env{env}
	if *allSizes {
		envs = envs[:0]
		for _, s := range experiment.DatasetSizes {
			e, err := experiment.LoadEnv(s, *seed)
			if err != nil {
				return err
			}
			envs = append(envs, e)
		}
	}

	emit := func(t *experiment.Table) error { return t.Write(os.Stdout, *format) }
	run := func(id string) error {
		switch id {
		case "11a":
			return emit(experiment.Fig11a(env))
		case "11b":
			return emit(experiment.Fig11b(env))
		case "11c":
			return emit(experiment.Fig11c(env))
		case "12a":
			return emit(experiment.Fig12a(envs, *fullNaive))
		case "12b":
			return emit(experiment.Fig12b(envs, *fullNaive))
		case "13":
			return emit(experiment.Fig13(envs))
		case "14a":
			return emit(experiment.Fig14a(env))
		case "14b":
			return emit(experiment.Fig14b(env))
		case "15a":
			t, err := experiment.Fig15a(env, *tune)
			if err != nil {
				return err
			}
			return emit(t)
		case "15b":
			return emit(experiment.Fig15b(env))
		case "naive":
			return emit(experiment.NaiveAssessment(env))
		case "profile":
			return emit(experiment.HopProfileTable(env))
		case "18":
			return emit(experiment.WorkloadSummary(env))
		case "ablation-context":
			return emit(experiment.AblationContextAdjustment(env))
		case "ablation-focal":
			return emit(experiment.AblationFocalAdjustment(env))
		case "ablation-technique":
			return emit(experiment.AblationSearchTechnique(env))
		default:
			return fmt.Errorf("unknown figure %q", id)
		}
	}
	if *figure == "all" {
		for _, id := range []string{"11a", "11b", "11c", "12a", "12b", "13",
			"14a", "14b", "15a", "15b", "naive", "profile",
			"18", "ablation-context", "ablation-focal", "ablation-technique"} {
			if err := run(id); err != nil {
				return err
			}
		}
		return nil
	}
	return run(*figure)
}

// cmdLearn runs the footnote-2 extension: mine the existing annotations for
// the concepts they reference and the columns they reference them by, and
// print the proposed ConceptRefs rows with their support.
func cmdLearn(args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	size := fs.String("size", "small", "dataset size: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "generator seed")
	minSupport := fs.Float64("min-support", 0.15, "minimum column support")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := generate(*size, *seed)
	if err != nil {
		return err
	}
	opts := meta.DefaultLearnOptions()
	opts.MinSupport = *minSupport
	concepts, supports := meta.LearnConcepts(ds.DB, ds.Store, opts)
	fmt.Println("column support (fraction of attachments whose annotation text contains the column's value):")
	for _, s := range supports {
		fmt.Printf("  %-22s %6.3f  (%d/%d)\n", s.Column, s.Support, s.Hits, s.Attachments)
	}
	fmt.Printf("\nproposed ConceptRefs rows (min support %.2f):\n", *minSupport)
	for _, c := range concepts {
		fmt.Printf("  concept %-10s table %-10s referenced by %v\n", c.Name, c.Table, c.ReferencedBy)
	}
	return nil
}

func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	size := fs.String("size", "tiny", "dataset size: tiny|small|mid|large")
	seed := fs.Int64("seed", 42, "generator seed")
	index := fs.Int("index", 0, "workload annotation index")
	delta := fs.Int("delta", 1, "distortion degree Δ (focal attachments kept)")
	epsilon := fs.Float64("epsilon", 0.6, "cutoff threshold ε")
	spreadK := fs.Int("spread", 0, "focal-spreading radius K (0 = full search)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per run (0 = none); partial candidates are reported when it fires")
	maxCand := fs.Int("max-candidates", 0, "keep only the N strongest candidates (0 = all)")
	maxQueries := fs.Int("max-queries", 0, "cap Stage 1 at the N highest-weight queries (0 = all)")
	parallelism := fs.Int("parallelism", 0, "worker pool size for keyword execution (0 = NumCPU, 1 = sequential)")
	cacheFlag := fs.String("cache", "", "result caching: on, off, or a byte budget (default on at 64 MiB)")
	traceFlag := fs.Bool("trace", false, "record a request-scoped span tree and print it after the run (observe-only)")
	planFlag := fs.Bool("plan", false, "enable the cost-based planner (requires --topk; top-k output is byte-identical to exhaustive)")
	topK := fs.Int("topk", 0, "keep only the strongest k attachments (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flagcheck.All(
		flagcheck.NonNegativeDuration("timeout", *timeout),
		flagcheck.NonNegative("max-candidates", *maxCand),
		flagcheck.NonNegative("max-queries", *maxQueries),
		flagcheck.NonNegative("parallelism", *parallelism),
		flagcheck.NonNegative("spread", *spreadK),
		flagcheck.NonNegative("topk", *topK),
	); err != nil {
		return err
	}
	ds, err := generate(*size, *seed)
	if err != nil {
		return err
	}
	if *index < 0 || *index >= len(ds.Workload) {
		return fmt.Errorf("index %d outside workload [0, %d)", *index, len(ds.Workload))
	}
	spec := ds.Workload[*index]

	opts := nebula.DefaultOptions()
	opts.Epsilon = *epsilon
	if *spreadK > 0 {
		opts.Spreading = true
		opts.SpreadingK = *spreadK
	}
	opts.Budget = nebula.Budget{
		MaxCandidates: *maxCand,
		MaxQueries:    *maxQueries,
		Deadline:      *timeout,
	}
	opts.Parallelism = *parallelism
	opts.Trace = *traceFlag
	opts.Plan = *planFlag
	opts.TopK = *topK
	cacheCfg, err := nebula.ParseCacheConfig(*cacheFlag)
	if err != nil {
		return err
	}
	opts.Cache = cacheCfg
	engine, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		return err
	}
	focal := spec.Focal(*delta)
	if err := engine.AddAnnotation(spec.Ann, focal); err != nil {
		return err
	}
	fmt.Printf("annotation %s (%d bytes, class %s)\n", spec.Ann.ID, len(spec.Ann.Body), spec.Refs)
	fmt.Printf("body: %q\n", spec.Ann.Body)
	fmt.Printf("focal (Δ=%d): %v\n", *delta, focal)
	fmt.Printf("hidden ground truth: %v\n\n", spec.Hidden(*delta))

	disc, outcome, err := engine.Process(spec.Ann.ID)
	if err != nil {
		if disc == nil || (!errors.Is(err, nebula.ErrCancelled) && !errors.Is(err, nebula.ErrBudgetExceeded)) {
			return err
		}
		// Governed interruption: report the partial run instead of dying.
		fmt.Printf("run interrupted (%v); reporting partial results, nothing routed to verification\n\n", err)
	}
	if degraded := disc.Degraded(); len(degraded) > 0 {
		fmt.Println("degraded run:")
		for _, reason := range degraded {
			fmt.Printf("  - %s\n", reason)
		}
		fmt.Println()
	}
	fmt.Printf("generated %d keyword queries (maps %v, context %v, queries %v):\n",
		len(disc.Queries), disc.GenStats.MapGeneration, disc.GenStats.ContextAdjustment,
		disc.GenStats.QueryGeneration)
	for _, q := range disc.Queries {
		fmt.Printf("  %v\n", q)
	}
	if ps := disc.ExecStats.Plan; ps != nil && ps.Enabled {
		fmt.Printf("\nplan: top-%d, %d/%d queries executed, %d pruned (waves=%d frontier=%d completion-scanned=%d)\n",
			ps.TopK, ps.Executed, ps.Queries, ps.Pruned, ps.Waves, ps.Frontier, ps.CompletionScanned)
		for _, s := range ps.Skipped {
			fmt.Printf("  skipped %s\n", s)
		}
	} else if ps != nil && ps.Reason != "" {
		fmt.Printf("\nplan: not eligible (%s)\n", ps.Reason)
	}
	fmt.Printf("\nsearched %d tuples (miniDB=%v); %d candidates:\n",
		disc.ExecStats.SearchedDB, disc.ExecStats.MiniDBUsed, len(disc.Candidates))
	truth := map[nebula.TupleID]bool{}
	for _, t := range spec.Related {
		truth[t] = true
	}
	for _, c := range disc.Candidates {
		mark := " "
		if truth[c.Tuple.ID] {
			mark = "*"
		}
		fmt.Printf("  %s conf=%.3f %v (evidence %v)\n", mark, c.Confidence, c.Tuple.ID, c.Evidence)
	}
	fmt.Printf("\nverification (bounds [%.2f, %.2f]): %d auto-accepted, %d pending, %d auto-rejected\n",
		engine.Bounds().Lower, engine.Bounds().Upper,
		len(outcome.Accepted), len(outcome.Pending), len(outcome.Rejected))
	if disc.Trace != nil {
		fmt.Printf("\ntrace (%d spans):\n%s", disc.Trace.SpanCount(), disc.Trace)
	}
	return nil
}

// cmdDemo reproduces the paper's Figure 1 running example end to end.
func cmdDemo() error {
	db := nebula.NewDatabase()
	gene := &nebula.Schema{
		Name: "Gene",
		Columns: []nebula.Column{
			{Name: "GID", Type: nebula.TypeString, Indexed: true},
			{Name: "Name", Type: nebula.TypeString, Indexed: true},
			{Name: "Length", Type: nebula.TypeInt},
			{Name: "Seq", Type: nebula.TypeString},
			{Name: "Family", Type: nebula.TypeString, Indexed: true},
		},
		PrimaryKey: "GID",
	}
	gt, err := db.CreateTable(gene)
	if err != nil {
		return err
	}
	rows := [][]nebula.Value{
		{nebula.String("JW0013"), nebula.String("grpC"), nebula.Int(1130), nebula.String("TGCT"), nebula.String("F1")},
		{nebula.String("JW0014"), nebula.String("groP"), nebula.Int(1916), nebula.String("GGTT"), nebula.String("F6")},
		{nebula.String("JW0015"), nebula.String("insL"), nebula.Int(1112), nebula.String("GGCT"), nebula.String("F1")},
		{nebula.String("JW0018"), nebula.String("nhaA"), nebula.Int(1166), nebula.String("CGTT"), nebula.String("F1")},
		{nebula.String("JW0019"), nebula.String("yaaB"), nebula.Int(905), nebula.String("TGTG"), nebula.String("F3")},
		{nebula.String("JW0012"), nebula.String("yaaI"), nebula.Int(404), nebula.String("TTCG"), nebula.String("F1")},
		{nebula.String("JW0027"), nebula.String("namE"), nebula.Int(658), nebula.String("GTTT"), nebula.String("F4")},
	}
	for _, r := range rows {
		if _, err := gt.Insert(r); err != nil {
			return err
		}
	}
	repo := nebula.NewMetaRepository(db, nil)
	if err := repo.AddConcept(&nebula.Concept{
		Name: "Gene", Table: "Gene", ReferencedBy: [][]string{{"GID"}, {"Name"}},
	}); err != nil {
		return err
	}
	repo.AddEquivalentNames("GID", "Gene ID")
	if err := repo.SetPattern(nebula.ColumnRef{Table: "Gene", Column: "GID"}, `JW[0-9]{4}`); err != nil {
		return err
	}
	if err := repo.SetPattern(nebula.ColumnRef{Table: "Gene", Column: "Name"}, `[a-z]{2,3}[A-Z]`); err != nil {
		return err
	}

	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.9}
	engine, err := nebula.New(db, repo, opts)
	if err != nil {
		return err
	}

	fmt.Println("Figure 1 demo: Alice attaches a comment to gene JW0019 (yaaB).")
	alice := &nebula.Annotation{
		ID:     "alice-comment",
		Author: "alice",
		Body:   "From the exp, it seems this gene is correlated to JW0014 of grpC",
		Kind:   "comment",
	}
	yaaB, _ := gt.GetByPK(nebula.String("JW0019"))
	if err := engine.AddAnnotation(alice, []nebula.TupleID{yaaB.ID}); err != nil {
		return err
	}
	disc, outcome, err := engine.Process(alice.ID)
	if err != nil {
		return err
	}
	fmt.Printf("\nNebula generated %d keyword queries from the comment:\n", len(disc.Queries))
	for _, q := range disc.Queries {
		fmt.Printf("  %v\n", q)
	}
	fmt.Println("\npredicted missing attachments:")
	for _, c := range disc.Candidates {
		fmt.Printf("  conf=%.3f %v\n", c.Confidence, c.Tuple)
	}
	fmt.Printf("\nrouting: %d auto-accepted, %d pending expert verification, %d rejected\n",
		len(outcome.Accepted), len(outcome.Pending), len(outcome.Rejected))
	for _, t := range engine.PendingTasks() {
		fmt.Printf("  pending %v\n", t)
	}
	fmt.Println("\nThe comment now reaches JW0014 and grpC — the database is no longer under-annotated.")
	return nil
}
