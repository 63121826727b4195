// Package mpi provides an in-process, virtual-time MPI-like runtime.
//
// Ranks are simulation processes (see internal/des) that synchronize
// through collectives with an α–β network cost model. The package mirrors
// only the MPI surface the paper's workloads use — Barrier, Bcast, Gather
// and Finalize — so the workload models read like the MPI codes they
// stand in for.
package mpi

import (
	"fmt"

	"iobehind/internal/des"
)

// Config describes a world of ranks.
type Config struct {
	// Size is the number of ranks. Must be >= 1.
	Size int
	// RanksPerNode is the process-per-node count (96 on Lichtenberg). It
	// maps ranks to nodes: MPI-IO tags each rank's flows with its node
	// and picks collective-I/O aggregators per node, and traces record
	// it. Defaults to 96.
	RanksPerNode int
}

func (c *Config) applyDefaults() {
	if c.Size < 1 {
		panic(fmt.Sprintf("mpi: world size must be >= 1, got %d", c.Size))
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = 96
	}
}

// World is a communicator spanning all ranks of one application.
type World struct {
	e        *des.Engine
	cfg      Config
	ranks    []*Rank
	barrier  *des.Barrier
	finished int
	allDone  *des.Completion
	finHooks []func(*Rank)
	launched bool
}

// NewWorld creates a world on engine e. Ranks are created immediately but
// do not run until Launch.
func NewWorld(e *des.Engine, cfg Config) *World {
	cfg.applyDefaults()
	w := &World{
		e:       e,
		cfg:     cfg,
		barrier: des.NewBarrier(e, cfg.Size),
		allDone: des.NewCompletion(e),
	}
	for i := 0; i < cfg.Size; i++ {
		w.ranks = append(w.ranks, &Rank{w: w, id: i})
	}
	return w
}

// Engine returns the engine the world runs on.
func (w *World) Engine() *des.Engine { return w.e }

// Size returns the number of ranks.
func (w *World) Size() int { return w.cfg.Size }

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Ranks returns all ranks in id order.
func (w *World) Ranks() []*Rank { return w.ranks }

// AllDone fires when every rank's main function has returned.
func (w *World) AllDone() *des.Completion { return w.allDone }

// AddFinalizeHook registers fn to run inside each rank's Finalize call.
// This is the seam TMIO uses to model its post-runtime aggregation cost.
func (w *World) AddFinalizeHook(fn func(*Rank)) {
	w.finHooks = append(w.finHooks, fn)
}

// Launch starts every rank running main at the current virtual time and
// returns immediately; drive the engine to execute them. Launch may be
// called once per world.
func (w *World) Launch(main func(*Rank)) {
	if w.launched {
		panic("mpi: world launched twice")
	}
	w.launched = true
	for _, r := range w.ranks {
		r := r
		r.proc = w.e.Spawn(fmt.Sprintf("rank%d", r.id), func(p *des.Proc) {
			r.started = p.Now()
			main(r)
			r.ended = p.Now()
			w.finished++
			if w.finished == w.cfg.Size {
				w.allDone.Complete()
			}
		})
	}
}

// Run launches main and drives the engine until the event queue drains,
// returning the first process failure. It verifies all ranks completed.
// A failed run unwinds every process still parked on the engine, so it
// leaks no goroutines.
func (w *World) Run(main func(*Rank)) error {
	w.Launch(main)
	err := w.e.Run()
	if err == nil && w.finished != w.cfg.Size {
		err = fmt.Errorf("mpi: %d of %d ranks did not complete (deadlock?)",
			w.cfg.Size-w.finished, w.cfg.Size)
	}
	if err != nil {
		w.e.Shutdown()
	}
	return err
}
