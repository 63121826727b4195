package mpi

import (
	"math"
	"math/bits"

	"iobehind/internal/des"
)

// CostModel is a latency–bandwidth (α–β) model of the interconnect.
type CostModel struct {
	// Alpha is the per-message latency.
	Alpha des.Duration
	// BetaPerByte is the per-byte transfer time in seconds.
	BetaPerByte float64
}

// DefaultCostModel returns parameters typical of a 100 Gb/s fabric:
// 2 µs latency, 12.5 GB/s per-link bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{Alpha: 2 * des.Microsecond, BetaPerByte: 1.0 / 12.5e9}
}

// log2ceil returns ⌈log₂ n⌉ with log2ceil(1) = 1, the tree depth used by
// the collective estimates (a self-collective still costs one α).
func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// pointToPoint is the cost of moving bytes between two ranks.
func (c CostModel) pointToPoint(bytes int64) des.Duration {
	return c.Alpha + des.DurationOf(float64(bytes)*c.BetaPerByte)
}

// barrier is the cost of an n-rank barrier (dissemination: ⌈log₂ n⌉ rounds).
func (c CostModel) barrier(n int) des.Duration {
	return des.Duration(log2ceil(n)) * c.Alpha
}

// bcast is the cost of broadcasting bytes to n ranks (binomial tree).
func (c CostModel) bcast(n int, bytes int64) des.Duration {
	return des.Duration(log2ceil(n)) * c.pointToPoint(bytes)
}

// gather: the root receives (n−1) messages up a binomial tree.
func (c CostModel) gather(n int, bytesPerRank int64) des.Duration {
	lat := des.Duration(log2ceil(n)) * c.Alpha
	vol := des.DurationOf(float64(bytesPerRank) * float64(n-1) * c.BetaPerByte)
	return lat + vol
}

// InterferenceModel captures how a rank's background I/O slows computation
// on its node. Background I/O threads compete with compute threads for
// cores and memory bandwidth (Tseng et al., cited as [33] in the paper).
//
// After a transfer of duration t at rank-level rate r, the rank is charged
//
//	penalty = Kappa · t · (R/RefRate)^Exponent,  R = r · RanksPerNode
//
// R approximates the node-aggregate I/O rate under the symmetric workloads
// studied here (every rank on a node behaves alike). With Exponent = 2 the
// penalty per byte grows linearly with the rate, so a short violent burst
// costs more compute time than the same bytes trickled slowly — this is
// what makes throttled runs slightly faster, as the paper observes. With
// Exponent = 1 the penalty per byte is rate-independent (the null model
// used in the ablation benchmarks).
type InterferenceModel struct {
	// Kappa scales the penalty; zero disables interference.
	Kappa float64
	// RefRate is the node-level reference rate in bytes/s (for example,
	// the node's memory bandwidth headroom). Defaults to 2 GB/s when
	// Kappa is set.
	RefRate float64
	// Exponent defaults to 2.
	Exponent float64
}

// Penalty returns the compute-time penalty in seconds for a transfer of
// duration seconds at node-aggregate rate nodeRate (bytes/s).
func (m InterferenceModel) Penalty(duration, nodeRate float64) float64 {
	if m.Kappa <= 0 || duration <= 0 || nodeRate <= 0 {
		return 0
	}
	ref := m.RefRate
	if ref <= 0 {
		ref = 2e9
	}
	exp := m.Exponent
	if exp <= 0 {
		exp = 2
	}
	return m.Kappa * duration * math.Pow(nodeRate/ref, exp)
}
