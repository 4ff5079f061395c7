package experiment

import (
	"time"
)

// Fig14 parameters: the distortion degrees and spreading radii of §8.2.
var (
	Fig14Deltas = []int{1, 2, 3}
	Fig14Ks     = []int{2, 3, 4}
	// Fig14Size is the annotation set used (L^100, "an average-size set").
	Fig14Size = 100
	// Fig14Epsilon is the cutoff used (0.6, "as it has zero false
	// negatives").
	Fig14Epsilon = 0.6
)

// Fig14a reproduces Figure 14(a): execution time of the focal-spreading
// approximate search across Δ and K, against the basic (full database, no
// sharing) search and the sharing-enabled search as reference lines.
func Fig14a(env *Env) *Table {
	t := &Table{
		Title: "Figure 14(a) — Focal-spreading execution time (" + env.Name +
			", eps=0.6, L^100; ms avg/annotation)",
		Header: []string{"delta", "basic_full", "shared_full", "K=2", "K=3", "K=4",
			"speedup_vs_basic(K=3)", "speedup_vs_shared(K=3)"},
	}
	basic := runNebulaExec(env, Fig14Size, Fig14Epsilon, false, false, 1, 0)
	shared := runNebulaExec(env, Fig14Size, Fig14Epsilon, true, false, 1, 0)
	for _, delta := range Fig14Deltas {
		times := map[int]time.Duration{}
		for _, k := range Fig14Ks {
			m := runNebulaExec(env, Fig14Size, Fig14Epsilon, false, true, delta, k)
			times[k] = m.avgTime
		}
		t.Rows = append(t.Rows, []string{
			fmtI(delta),
			fmtMs(basic.avgTime.Nanoseconds()),
			fmtMs(shared.avgTime.Nanoseconds()),
			fmtMs(times[2].Nanoseconds()), fmtMs(times[3].Nanoseconds()), fmtMs(times[4].Nanoseconds()),
			speedup(basic.avgTime, times[3]),
			speedup(shared.avgTime, times[3]),
		})
	}
	return t
}

// Fig14b reproduces Figure 14(b): the number of produced candidate tuples
// under focal spreading across Δ and K, with the full-search count as the
// reference.
func Fig14b(env *Env) *Table {
	t := &Table{
		Title: "Figure 14(b) — Focal-spreading produced tuples (" + env.Name +
			", eps=0.6, L^100; avg/annotation)",
		Header: []string{"delta", "full_search", "K=2", "K=3", "K=4"},
	}
	full := runNebulaExec(env, Fig14Size, Fig14Epsilon, false, false, 1, 0)
	for _, delta := range Fig14Deltas {
		cells := []string{fmtI(delta), fmtF(full.avgTuple)}
		for _, k := range Fig14Ks {
			m := runNebulaExec(env, Fig14Size, Fig14Epsilon, false, true, delta, k)
			cells = append(cells, fmtF(m.avgTuple))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// HopProfileTable reproduces the Figure 7-style metadata profile: it
// processes the workload through full-database discovery, records each
// accepted prediction's hop distance from its annotation's focal, and
// prints the resulting histogram with cumulative coverage — the guidance
// used to pick K.
func HopProfileTable(env *Env) *Table {
	profile := buildHopProfile(env)
	t := &Table{
		Title:  "Figure 7 — Hop-distance metadata profile (" + env.Name + ")",
		Header: []string{"hops", "count", "coverage"},
	}
	for h := 0; h <= profile.MaxHops(); h++ {
		t.Rows = append(t.Rows, []string{
			fmtI(h), fmtI(profile.Bucket(h)), fmtF(profile.CoverageAt(h)),
		})
	}
	t.Rows = append(t.Rows, []string{"unreachable", fmtI(profile.Unreachable()), ""})
	return t
}
