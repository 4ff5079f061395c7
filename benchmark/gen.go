package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"nebula"
	"nebula/internal/workload"
)

// sizes fixes every count the harness uses, so that set-up, warm-up, the
// epilogue and the probes do the same amount of work on every machine and
// every commit. Only the measured window ends on the clock.
type sizes struct {
	data       workload.Config
	seedWrites int // durable add+process pairs in set-up
	tailWrites int // durable add+process pairs after the checkpoint
	warmups    int // discoveries before the window on the read-only workloads
	mixedWarm  int // scripted steps before the window on curate_mixed, all clients together
	hotSet     int // distinct annotations discover_hot reads
	recent     int // how many recently added annotations curate_mixed reads pick from
	probes     int // quality-probe annotations
	renders    int // discoveries rendered before the crash and after recovery
	scriptLen  int // scripted steps of curate_mixed's curator
	hotPicks   int // scripted Zipf reads per reading client
	poolSize   int // tuples the curate_mixed updates rotate over
	layerCalls int // calls per layer probe in a traced run
	// strict applies the checks that only hold at full scale: set-up long
	// enough to time steadily, and sweeps that never repeat an annotation.
	strict bool
}

// fullSizes is what BENCHMARK.json measures: D_mid (27 000 rows, 15 000
// annotations), three orders of magnitude above the two clients.
var fullSizes = sizes{
	data:       workload.MidConfig(fixtureSeed),
	seedWrites: 24, tailWrites: 16, warmups: 400, mixedWarm: 84,
	hotSet: 1000, recent: 500, probes: 200, renders: 50,
	scriptLen: 1000, hotPicks: 600000, poolSize: 8, layerCalls: 200,
	strict: true,
}

// tinySizes keeps the smoke test under a few seconds.
var tinySizes = sizes{
	data:       workload.TinyConfig(fixtureSeed),
	seedWrites: 6, tailWrites: 4, warmups: 20, mixedWarm: 42,
	hotSet: 40, recent: 20, probes: 20, renders: 10,
	scriptLen: 120, hotPicks: 20000, poolSize: 4, layerCalls: 10,
}

// noted is a new annotation with the generator's ground truth kept beside
// it: Related[0] is the manual attachment (the focal), the rest are the
// hidden attachments discovery should find.
type noted struct {
	id      nebula.AnnotationID
	body    string
	related []nebula.TupleID
}

func (n noted) annotation() *nebula.Annotation {
	return &nebula.Annotation{ID: n.id, Author: "benchmark", Body: n.body, Kind: "note"}
}

type opKind uint8

const (
	opRead opKind = iota
	opCurate
	opVerdict
	opAsync
	opUpdate
	opFlush
	numOpKinds
)

var opNames = [numOpKinds]string{"read", "curate", "verdict", "async", "update", "flush"}

// mixCycle is curate_mixed's op mix, 30 % curate, 30 % verdict, 30 % read, 5 %
// async and 5 % tuple update, as a fixed rotation: every twenty steps hold
// exactly that mix, so two runs differ in which annotations they touch and
// never in how many steps of each kind the window happened to draw.
var mixCycle = []opKind{
	opCurate, opVerdict, opRead, opCurate, opVerdict, opRead, opCurate, opVerdict, opRead, opAsync,
	opCurate, opVerdict, opRead, opCurate, opVerdict, opRead, opCurate, opVerdict, opRead, opUpdate,
}

// curatedRefs is the number of tuples every written annotation references:
// one manual attachment and two hidden ones. A write's cost follows the
// number of attachments it accepts, so a fixed shape keeps write latency
// from depending on which publications the seed happened to pick.
const curatedRefs = 3

// scriptOp is one scripted step of the curator. arg is a Zipf rank for reads,
// an index into adds for curate/async, and an index into the update pool for
// updates.
type scriptOp struct {
	kind opKind
	arg  int32
}

// script is everything a workload run feeds the engine, derived from the
// dataset and the seed alone.
type script struct {
	// sweep is the order in which the sweeping workloads discover base
	// publications: warm-up takes the front, the window continues behind it.
	sweep []nebula.AnnotationID
	// picks[c] are client c's Zipf ranks: into sweep[:hotSet] on discover_hot,
	// into the most recently added annotations for curate_mixed's reader.
	picks [][]int32
	// ops and adds are the curator's steps on curate_mixed and the new
	// annotations its curate/async steps insert, in order.
	ops  []scriptOp
	adds []noted
	// pool and cells are the tuples the update steps rewrite and the values
	// they write, both indexed round-robin.
	pool  []nebula.TupleID
	cells []string
	// fanout is the mean number of annotations one pool update re-queues.
	fanout float64

	seeds, tail, probes []noted
	renders             []nebula.AnnotationID
	sha                 string
}

// letters spells n in base 26. The distinguishing suffix of a new body must
// not look like an identifier (digits, capitals), or it would add keyword
// queries of its own to every discovery.
func letters(n int) string {
	var b [7]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('a' + n%26)
		n /= 26
	}
	return string(b[:])
}

// fixtureSeed seeds everything a run's set-up, epilogue and probes share
// with every other run: the dataset, the seeding and tail writes, and the
// quality-probe annotations. Prediction quality, space and the work done in
// set-up and recovery are properties of those inputs, so a run's --seed must
// not move them: with the dataset seeded per run, recall_share on
// restart_disk alone spread 12 % over ten seeds, against nothing when fixed.
// The --seed drives what the measured window does: which annotations are read
// and in what order, the Zipf picks, and which publications the curator's new
// annotations come from.
const fixtureSeed = 42

// picker hands out new annotations: each reuses the body and ground truth of
// a base publication under a fresh ID with a distinct suffix, and no base
// publication is the source of two.
type picker struct {
	ds     *workload.Dataset
	order  []int // indexes into ds.Base, consumed from the back
	serial int
	// scarce lifts the shape filter on a dataset too small to offer enough
	// three-reference publications (the smoke test's).
	scarce bool
}

func (p *picker) take(prefix string, n, refs int) ([]noted, error) {
	out := make([]noted, 0, n)
	for len(out) < n {
		if len(p.order) == 0 {
			return nil, fmt.Errorf("dataset too small: ran out of base publications for %q annotations", prefix)
		}
		src := p.ds.Base[p.order[len(p.order)-1]]
		p.order = p.order[:len(p.order)-1]
		if len(src.Related) < 2 || (refs != 0 && len(src.Related) != refs && !p.scarce) {
			continue // nothing hidden to rediscover, or not the asked-for shape
		}
		out = append(out, noted{
			id:      nebula.AnnotationID(fmt.Sprintf("%s:%06d", prefix, len(out))),
			body:    fmt.Sprintf("%s curated %s %s", src.Ann.Body, prefix, letters(p.serial)),
			related: src.Related,
		})
		p.serial++
	}
	return out, nil
}

// buildScript derives the workload's inputs: the fixture part from
// fixtureSeed, the window's part from seed. A base publication that became the
// source of a new annotation is never also read by the sweep.
func buildScript(ds *workload.Dataset, w *spec, sz sizes, seed int64) (*script, error) {
	s := &script{}
	scarce := len(ds.Base) < 2000
	fixture := &picker{ds: ds, order: rand.New(rand.NewSource(fixtureSeed)).Perm(len(ds.Base)), scarce: scarce}
	var err error
	if s.seeds, err = fixture.take("seed", sz.seedWrites, curatedRefs); err != nil {
		return nil, err
	}
	if s.tail, err = fixture.take("tail", sz.tailWrites, curatedRefs); err != nil {
		return nil, err
	}
	if s.probes, err = fixture.take("probe", sz.probes, 0); err != nil {
		return nil, err
	}
	// What the fixture did not consume is the seeded part's to order.
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w.name))))
	sort.Ints(fixture.order)
	rng.Shuffle(len(fixture.order), func(i, j int) {
		fixture.order[i], fixture.order[j] = fixture.order[j], fixture.order[i]
	})
	seeded := &picker{ds: ds, order: fixture.order, scarce: scarce}

	if w.mixed {
		mix := rand.New(rand.NewSource(seed*104729 + 1))
		zipf := rand.NewZipf(mix, 1.1, 1, uint64(sz.recent-1))
		nadds, nupdates := int32(0), int32(0)
		for len(s.ops) < sz.scriptLen {
			for _, kind := range mixCycle {
				op := scriptOp{kind: kind}
				switch kind {
				case opCurate, opAsync:
					op.arg = nadds
					nadds++
				case opRead:
					op.arg = int32(zipf.Uint64())
				case opUpdate:
					// Round-robin, not drawn: the pool's tuples differ in how
					// much re-discovery an update costs, and every seed should
					// pay the same.
					op.arg = nupdates % int32(sz.poolSize)
					nupdates++
				}
				s.ops = append(s.ops, op)
			}
		}
		if s.adds, err = seeded.take("add", int(nadds), curatedRefs); err != nil {
			return nil, err
		}
		s.pool, s.fanout = updatePool(ds, sz.poolSize)
		const bases = "ACGT"
		for i := 0; i < 64; i++ {
			cell := make([]byte, 16)
			for j := range cell {
				cell[j] = bases[mix.Intn(4)]
			}
			s.cells = append(s.cells, string(cell))
		}
	}

	s.sweep = make([]nebula.AnnotationID, len(seeded.order))
	for i, idx := range seeded.order {
		s.sweep[i] = ds.Base[idx].Ann.ID
	}
	if need := sz.warmups + sz.hotSet; len(s.sweep) < need {
		return nil, fmt.Errorf("dataset too small: %d base publications left to read, need %d", len(s.sweep), need)
	}
	if w.hot || w.mixed {
		span := sz.hotSet
		if w.mixed {
			span = sz.recent
		}
		for c := 0; c < w.clients; c++ {
			pick := rand.New(rand.NewSource(seed*15485863 + int64(c)))
			zipf := rand.NewZipf(pick, 1.1, 1, uint64(span-1))
			ranks := make([]int32, sz.hotPicks)
			for i := range ranks {
				ranks[i] = int32(zipf.Uint64())
			}
			s.picks = append(s.picks, ranks)
		}
	}

	// Renders cover both kinds of state recovery must reproduce: annotations
	// the run wrote (snapshot and WAL suffix) and ones it only read.
	for i := 0; i < sz.renders; i++ {
		switch {
		case i%2 == 0 && i/2 < len(s.tail):
			s.renders = append(s.renders, s.tail[i/2].id)
		case i%2 == 1 && i/2 < len(s.seeds):
			s.renders = append(s.renders, s.seeds[i/2].id)
		default:
			s.renders = append(s.renders, s.sweep[len(s.sweep)-1-i])
		}
	}
	s.sha = s.digest()
	return s, nil
}

// updatePool picks the tuples the update steps rewrite. Change-data-capture
// re-discovers every annotation within one ACG hop of an updated tuple, which
// in a dense community is hundreds of them; the pool is the least connected
// of the annotated genes, so that a drain stays a stall the window sees many
// of, not one that swallows it.
func updatePool(ds *workload.Dataset, n int) ([]nebula.TupleID, float64) {
	genes := ds.DB.MustTable("Gene").Rows()
	type cand struct {
		id       nebula.TupleID
		affected int
	}
	var cands []cand
	for _, row := range genes {
		id := row.ID
		if k := len(ds.Graph.AffectedAnnotations([]nebula.TupleID{id}, 1)); k > 0 {
			cands = append(cands, cand{id, k})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].affected < cands[j].affected })
	pool := make([]nebula.TupleID, 0, n)
	total := 0
	for _, c := range cands[:min(len(cands), n)] {
		pool = append(pool, c.id)
		total += c.affected
	}
	return pool, ratio(float64(total), float64(len(pool)))
}

// digest hashes every input the engine will see, so two runs can be shown to
// have had identical inputs.
func (s *script) digest() string {
	h := sha256.New()
	str := func(v string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
		h.Write(n[:])
		h.Write([]byte(v))
	}
	notes := func(ns []noted) {
		for _, n := range ns {
			str(string(n.id))
			str(n.body)
			for _, t := range n.related {
				str(t.String())
			}
		}
	}
	for _, id := range s.sweep {
		str(string(id))
	}
	for _, ns := range [][]noted{s.seeds, s.tail, s.probes} {
		notes(ns)
	}
	for _, op := range s.ops {
		h.Write([]byte{byte(op.kind), byte(op.arg), byte(op.arg >> 8), byte(op.arg >> 16), byte(op.arg >> 24)})
	}
	notes(s.adds)
	for _, ranks := range s.picks {
		binary.Write(h, binary.LittleEndian, ranks)
	}
	for _, t := range s.pool {
		str(t.String())
	}
	for _, c := range s.cells {
		str(c)
	}
	for _, id := range s.renders {
		str(string(id))
	}
	return hex.EncodeToString(h.Sum(nil))
}
