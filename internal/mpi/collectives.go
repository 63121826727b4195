package mpi

// Collectives are modelled as synchronizing operations: all ranks must
// arrive, then all are released after the operation's α–β cost. Real MPI
// collectives are not all strict barriers, but HPC applications calling
// them in lockstep (the SPMD pattern of both paper workloads) behave this
// way to first order, and the approximation keeps the phase structure —
// which is what the paper's metrics measure — exact.
//
// Because one reusable barrier per world carries all collectives, every
// rank must issue the same sequence of collective calls, as the MPI
// standard itself requires.

// Barrier blocks until all ranks arrive.
func (r *Rank) Barrier() {
	r.w.barrier.Await(r.proc, barrierCost(r.w.cfg.Size))
}

// Bcast broadcasts bytes from root to all ranks.
func (r *Rank) Bcast(root int, bytes int64) {
	_ = root // the cost model is root-agnostic
	r.w.barrier.Await(r.proc, bcastCost(r.w.cfg.Size, bytes))
}

// Gather collects bytesPerRank from every rank at root.
func (r *Rank) Gather(root int, bytesPerRank int64) {
	_ = root
	r.w.barrier.Await(r.proc, gatherCost(r.w.cfg.Size, bytesPerRank))
}
