// Package workload generates the synthetic UniProt-like annotated database
// and the §8.1 annotation workload that Nebula's experiments run against.
//
// The paper evaluates on an 18 GB extract of the real UniProt repository
// (750k proteins, 1.3M genes, 12M publications). That data is not available
// offline, so this package synthesizes a database with the same topology —
// Protein —many:1→ Gene, Publication attached to gene and protein records —
// realistic identifier grammars, and publication texts that embed a
// controlled number of references to other tuples. Every experiment in §8
// is expressed in ratios and relative factors, which this generator
// preserves at laptop scale (see DESIGN.md, substitution 1).
package workload

import "fmt"

// Config sizes the synthetic dataset.
type Config struct {
	// Genes is the number of gene records.
	Genes int
	// Proteins is the number of protein records (each references a gene).
	Proteins int
	// Publications is the number of base publication records. Base
	// publications act as the pre-existing annotations: their attachments
	// build the ACG, exactly as §8.1 step 4 prescribes.
	Publications int
	// RefsPerPublication bounds how many gene/protein tuples a base
	// publication is attached to (uniform in [min, max]).
	RefsPerPublicationMin int
	RefsPerPublicationMax int
	// Families is the number of distinct gene families.
	Families int
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
}

// The three dataset scales of Figure 10, reduced from the paper's
// 2.5/10/20 GB server datasets to laptop-memory scale while preserving the
// 1 : 5 : 10 size ratios and the relative table cardinalities
// (genes > proteins, publications ≈ 2× genes).

// SmallConfig returns the D_small scale.
func SmallConfig(seed int64) Config {
	return Config{
		Genes: 1500, Proteins: 900, Publications: 3000,
		RefsPerPublicationMin: 2, RefsPerPublicationMax: 6,
		Families: 40, Seed: seed,
	}
}

// MidConfig returns the D_mid scale (5× small).
func MidConfig(seed int64) Config {
	return Config{
		Genes: 7500, Proteins: 4500, Publications: 15000,
		RefsPerPublicationMin: 2, RefsPerPublicationMax: 6,
		Families: 40, Seed: seed,
	}
}

// LargeConfig returns the D_large scale (10× small).
func LargeConfig(seed int64) Config {
	return Config{
		Genes: 15000, Proteins: 9000, Publications: 30000,
		RefsPerPublicationMin: 2, RefsPerPublicationMax: 6,
		Families: 40, Seed: seed,
	}
}

// TinyConfig returns a minimal dataset for unit tests.
func TinyConfig(seed int64) Config {
	return Config{
		Genes: 120, Proteins: 60, Publications: 200,
		RefsPerPublicationMin: 2, RefsPerPublicationMax: 5,
		Families: 8, Seed: seed,
	}
}

// SizeConfig returns the configuration of a named dataset size: "tiny",
// "small", "mid" or "large".
func SizeConfig(size string, seed int64) (Config, error) {
	switch size {
	case "tiny":
		return TinyConfig(seed), nil
	case "small":
		return SmallConfig(seed), nil
	case "mid":
		return MidConfig(seed), nil
	case "large":
		return LargeConfig(seed), nil
	}
	return Config{}, fmt.Errorf("workload: unknown dataset size %q (tiny|small|mid|large)", size)
}

// AnnotationSizes are the workload size classes L^m in bytes (Figure 10).
var AnnotationSizes = []int{50, 100, 500, 1000}

// RefClass identifies one of the L_{i-j} subsets.
type RefClass struct {
	// Min and Max bound the number of embedded references (inclusive).
	Min, Max int
}

// RefClasses are the three subsets of Figure 10/18: L_{1-3}, L_{4-6},
// L_{7-10}.
var RefClasses = []RefClass{{1, 3}, {4, 6}, {7, 10}}

func (c RefClass) String() string {
	return "L" + itoa(c.Min) + "-" + itoa(c.Max)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// AnnotationsPerCell is how many annotations each (size, refclass) cell of
// the workload contains (5 in the paper, 15 per L^m).
const AnnotationsPerCell = 5
