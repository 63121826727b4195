package mpi

import (
	"math/bits"

	"iobehind/internal/des"
)

// The collectives' latency–bandwidth (α–β) model of the interconnect,
// with parameters typical of a 100 Gb/s fabric: 2 µs per-message latency,
// 12.5 GB/s per-link bandwidth.
const (
	// alpha is the per-message latency.
	alpha des.Duration = 2 * des.Microsecond
	// betaPerByte is the per-byte transfer time in seconds.
	betaPerByte float64 = 1.0 / 12.5e9
)

// log2ceil returns ⌈log₂ n⌉ with log2ceil(1) = 1, the tree depth used by
// the collective estimates (a self-collective still costs one α).
func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// pointToPointCost is the cost of moving bytes between two ranks.
func pointToPointCost(bytes int64) des.Duration {
	return alpha + des.DurationOf(float64(bytes)*betaPerByte)
}

// barrierCost is the cost of an n-rank barrier (dissemination: ⌈log₂ n⌉
// rounds).
func barrierCost(n int) des.Duration {
	return des.Duration(log2ceil(n)) * alpha
}

// bcastCost is the cost of broadcasting bytes to n ranks (binomial tree).
func bcastCost(n int, bytes int64) des.Duration {
	return des.Duration(log2ceil(n)) * pointToPointCost(bytes)
}

// gatherCost: the root receives (n−1) messages up a binomial tree.
func gatherCost(n int, bytesPerRank int64) des.Duration {
	lat := des.Duration(log2ceil(n)) * alpha
	vol := des.DurationOf(float64(bytesPerRank) * float64(n-1) * betaPerByte)
	return lat + vol
}
