//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Allocation guards skip under it: the detector makes sync.Pool drop items
// at random (the regexp machines, the scan hit buffers), so allocation
// counts stop being a function of the code under test.
package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = false
