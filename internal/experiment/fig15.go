package experiment

import (
	"fmt"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
	"nebula/internal/verification"
	"nebula/internal/workload"
)

// Fig15Size is the annotation set of the verification experiments (L^100).
const Fig15Size = 100

// fig15Config is one of the eight x-axis configurations of Figure 15.
type fig15Config struct {
	label     string
	epsilon   float64
	spreading bool
	delta     int
	k         int
}

// fig15Configs reproduces the paper's eight configurations: the basic
// algorithm under the two cutoffs, plus six focal-spreading variants over
// (Δ, K).
var fig15Configs = []fig15Config{
	{label: "Nebula-0.6", epsilon: 0.6, delta: 1},
	{label: "Nebula-0.8", epsilon: 0.8, delta: 1},
	{label: "Focal D1,K2", epsilon: 0.6, spreading: true, delta: 1, k: 2},
	{label: "Focal D1,K3", epsilon: 0.6, spreading: true, delta: 1, k: 3},
	{label: "Focal D1,K4", epsilon: 0.6, spreading: true, delta: 1, k: 4},
	{label: "Focal D3,K2", epsilon: 0.6, spreading: true, delta: 3, k: 2},
	{label: "Focal D3,K3", epsilon: 0.6, spreading: true, delta: 3, k: 3},
	{label: "Focal D3,K4", epsilon: 0.6, spreading: true, delta: 3, k: 4},
}

// discoverCandidates runs Stage 1 + 2 for one annotation spec under one
// configuration, with focal adjustment on (the full pipeline).
func discoverCandidates(env *Env, spec *workload.AnnotationSpec, cfg fig15Config) ([]discovery.Candidate, []relational.TupleID) {
	ds := env.Dataset
	gen := sigmap.NewGenerator(ds.Meta, cfg.epsilon)
	queries, _ := gen.Generate(spec.Ann.Body)
	focal := spec.Focal(cfg.delta)
	d := discovery.New(ds.DB, ds.Meta, ds.Graph)
	cands, _, err := d.IdentifyRelatedTuples(queries, focal, discovery.Options{
		Shared:          true,
		FocalAdjustment: true,
		Spreading:       cfg.spreading,
		K:               cfg.k,
	})
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	return cands, focal
}

// assessConfig averages the Definition 7.2 criteria over the L^100
// annotations for one configuration and bounds.
func assessConfig(env *Env, cfg fig15Config, bounds verification.Bounds) verification.Assessment {
	specs := env.Dataset.WorkloadSet(Fig15Size, workload.RefClass{})
	var per []verification.Assessment
	for _, spec := range specs {
		cands, focal := discoverCandidates(env, spec, cfg)
		oracle := verification.NewIdealTupleOracle(spec.Ann.ID, spec.Related)
		per = append(per, verification.Assess(spec.Ann.ID, cands, bounds, oracle,
			len(spec.Related), len(focal)))
	}
	return verification.Average(per)
}

// TuneBoundsForEnv runs the Figure 9 BoundsSetting algorithm over a
// training subset of the base publications using the full-search Nebula-0.6
// pipeline, returning the chosen bounds.
func TuneBoundsForEnv(env *Env, trainingSize int) (verification.Bounds, error) {
	ds := env.Dataset
	var training []verification.TrainingExample
	for _, spec := range ds.TrainingSet(trainingSize) {
		training = append(training, verification.TrainingExample{
			Annotation: spec.Ann,
			Ideal:      spec.Related,
		})
	}
	discover := func(a *annotation.Annotation, focal []relational.TupleID) ([]discovery.Candidate, error) {
		gen := sigmap.NewGenerator(ds.Meta, 0.6)
		queries, _ := gen.Generate(a.Body)
		d := discovery.New(ds.DB, ds.Meta, ds.Graph)
		cands, _, err := d.IdentifyRelatedTuples(queries, focal, discovery.Options{
			Shared:          true,
			FocalAdjustment: true,
		})
		return cands, err
	}
	bounds, _, err := verification.BoundsSetting(training, discover, verification.DefaultBoundsConfig())
	return bounds, err
}

// Fig15a reproduces Figure 15(a): the four assessment criteria for the
// eight configurations, under bounds selected by the adaptive BoundsSetting
// algorithm (tune=true) or the paper's reported (0.32, 0.86) (tune=false).
func Fig15a(env *Env, tune bool) (*Table, error) {
	bounds := verification.Bounds{Lower: 0.32, Upper: 0.86}
	if tune {
		b, err := TuneBoundsForEnv(env, 100)
		if err != nil {
			return nil, err
		}
		bounds = b
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 15(a) — Assessment with bounds [%.2f, %.2f] (%s, L^100)",
			bounds.Lower, bounds.Upper, env.Name),
		Header: []string{"config", "F_N", "F_P", "M_F", "M_H"},
	}
	for _, cfg := range fig15Configs {
		a := assessConfig(env, cfg, bounds)
		t.Rows = append(t.Rows, []string{cfg.label, fmtF(a.FN), fmtF(a.FP), fmtF(a.MF), fmtF(a.MH)})
	}
	return t, nil
}

// Fig15b reproduces Figure 15(b): the extreme no-expert configuration with
// β_lower = β_upper = 0.5 — every prediction decided automatically.
func Fig15b(env *Env) *Table {
	bounds := verification.Bounds{Lower: 0.5, Upper: 0.5}
	t := &Table{
		Title:  "Figure 15(b) — Assessment with bounds [0.50, 0.50], no experts (" + env.Name + ", L^100)",
		Header: []string{"config", "F_N", "F_P", "M_F", "M_H"},
	}
	for _, cfg := range fig15Configs {
		a := assessConfig(env, cfg, bounds)
		t.Rows = append(t.Rows, []string{cfg.label, fmtF(a.FN), fmtF(a.FP), fmtF(a.MF), fmtF(a.MH)})
	}
	return t
}

// NaiveAssessment reproduces the §8.2 spot check: the assessment factors of
// the Naive approach on the L^50 set — the paper reports {0, 0.93, 318427,
// 1.6e-5}, i.e. an enormous manual effort with a negligible hit ratio.
func NaiveAssessment(env *Env) *Table {
	ds := env.Dataset
	bounds := verification.Bounds{Lower: 0.32, Upper: 0.86}
	specs := ds.WorkloadSet(50, workload.RefClass{})
	d := discovery.New(ds.DB, ds.Meta, ds.Graph)
	var per []verification.Assessment
	for _, spec := range specs {
		focal := spec.Focal(1)
		cands, _ := d.NaiveIdentify(spec.Ann.Body, focal)
		oracle := verification.NewIdealTupleOracle(spec.Ann.ID, spec.Related)
		per = append(per, verification.Assess(spec.Ann.ID, cands, bounds, oracle,
			len(spec.Related), len(focal)))
	}
	a := verification.Average(per)
	return &Table{
		Title:  "Naive assessment spot check (" + env.Name + ", L^50)",
		Header: []string{"F_N", "F_P", "M_F", "M_H"},
		Rows:   [][]string{{fmtF(a.FN), fmtF(a.FP), fmtF(a.MF), fmt.Sprintf("%.2e", a.MH)}},
	}
}

// buildHopProfile measures, for every workload annotation, the hop distance
// of each correctly predicted tuple from the annotation's focal — the
// Figure 7 profile-update protocol, run with the ground-truth oracle
// standing in for the acceptance decision.
func buildHopProfile(env *Env) *acg.Profile {
	ds := env.Dataset
	profile := acg.NewProfile()
	cfg := fig15Config{epsilon: 0.6, delta: 1}
	for _, spec := range ds.Workload {
		cands, focal := discoverCandidates(env, spec, cfg)
		truth := verification.NewIdealTupleOracle(spec.Ann.ID, spec.Related)
		for _, c := range cands {
			if !truth.IsRelated(spec.Ann.ID, c.Tuple.ID) {
				continue
			}
			hops, reachable := ds.Graph.HopsToAny(c.Tuple.ID, focal)
			profile.Record(hops, reachable)
		}
	}
	return profile
}
