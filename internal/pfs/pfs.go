// Package pfs models a shared parallel file system as a fluid-flow network.
//
// Bandwidth on each channel (one for writes, one for reads, mirroring the
// separate peak figures of IBM Spectrum Scale on the Lichtenberg cluster) is
// split evenly: each of n concurrent flows receives capacity/n. A job's
// share therefore grows with its flow count (one per rank). The file
// system caps no flow. The paper's bandwidth limit is pacing: the ADIO
// agents sleep off the rest of each sub-request's slot (internal/adio), so
// a throttled asynchronous job holds fewer flows open and the synchronous
// jobs competing for the file system take the spare bandwidth. The
// burst-buffer drainer keeps its drain rate the same way.
package pfs

import (
	"fmt"
	"math"

	"iobehind/internal/des"
)

// Class selects which channel a transfer uses.
type Class int

const (
	// Write transfers data from compute nodes to the file system.
	Write Class = iota
	// Read transfers data from the file system to compute nodes.
	Read
)

// String returns "write" or "read".
func (c Class) String() string {
	if c == Read {
		return "read"
	}
	return "write"
}

// Unlimited is the bandwidth-limit value meaning no limit. The file
// system caps no flow; adio, tmio and the cluster's contention monitor
// share it as their no-limit value.
var Unlimited = math.Inf(1)

// Config describes a file system.
type Config struct {
	// WriteCapacity and ReadCapacity are the peak bandwidths in bytes/s.
	// The paper's system: 106 GB/s writes, 120 GB/s reads.
	WriteCapacity float64
	ReadCapacity  float64
	// Noise, if non-nil, perturbs the effective capacity over time to model
	// external interference (other users, network congestion).
	Noise *NoiseConfig
}

// LichtenbergConfig returns the file system parameters of the paper's
// production system.
func LichtenbergConfig() Config {
	return Config{
		WriteCapacity: 106e9,
		ReadCapacity:  120e9,
	}
}

// PFS is a simulated parallel file system with one write and one read
// channel.
type PFS struct {
	e     *des.Engine
	chans [2]*channel
}

// New creates a file system on engine e. Capacities must be positive.
func New(e *des.Engine, cfg Config) *PFS {
	if cfg.WriteCapacity <= 0 || cfg.ReadCapacity <= 0 {
		panic(fmt.Sprintf("pfs: capacities must be positive, got write=%g read=%g",
			cfg.WriteCapacity, cfg.ReadCapacity))
	}
	p := &PFS{e: e}
	p.chans[Write] = newChannel(e, cfg.WriteCapacity)
	p.chans[Read] = newChannel(e, cfg.ReadCapacity)
	if cfg.Noise != nil {
		cfg.Noise.validate()
		p.chans[Write].noise = cfg.Noise
		p.chans[Read].noise = cfg.Noise
	}
	return p
}

// Engine returns the engine the file system is bound to.
func (p *PFS) Engine() *des.Engine { return p.e }

// Capacity returns the configured peak bandwidth of the class's channel.
func (p *PFS) Capacity(c Class) float64 { return p.chans[c].base }

// SetObserver installs fn to be called after every rate reallocation on
// either channel, with the current time and the channel's in-flight
// flows. The slice is the channel's own heap: it is valid only during the
// call and must not be modified. Used by the cluster simulator to record
// bandwidth distribution over time.
func (p *PFS) SetObserver(fn func(now des.Time, class Class, flows []*Flow)) {
	p.chans[Write].observer = func(now des.Time, flows []*Flow) { fn(now, Write, flows) }
	p.chans[Read].observer = func(now des.Time, flows []*Flow) { fn(now, Read, flows) }
}

// StartFlow begins transferring bytes on the class channel and returns
// immediately. Zero-byte flows complete at the current instant.
func (p *PFS) StartFlow(class Class, bytes int64, tag Tag) *Flow {
	if bytes < 0 {
		panic("pfs: negative transfer size")
	}
	return p.chans[class].start(float64(bytes), tag)
}

// Transfer runs a blocking transfer: it starts a flow and parks proc until
// the last byte has moved. It returns the transfer's start and end times.
func (p *PFS) Transfer(proc *des.Proc, class Class, bytes int64, tag Tag) (start, end des.Time) {
	f := p.StartFlow(class, bytes, tag)
	f.Wait(proc)
	return f.Started(), f.Finished()
}

// SetFaultFactors scales the effective capacity of each class's channel
// by a factor in [0,1] (1 restores full capacity; 0 is an outage,
// landing on the channel's 1 B/s floor so flows stall but never
// deadlock). A factor composes multiplicatively with the noise model:
// effective capacity = base × noise × fault. The fault-injection
// subsystem (internal/faults) drives this on window boundaries.
func (p *PFS) SetFaultFactors(write, read float64) {
	p.chans[Write].setFaultFactor(write)
	p.chans[Read].setFaultFactor(read)
}

// FaultFactor returns the fault factor currently applied to the class's
// channel (1 when healthy).
func (p *PFS) FaultFactor(class Class) float64 { return p.chans[class].faultFactor }

// NoteOp records an operation submission on the class channel and returns
// the burst concurrency: the number of operations (including this one)
// submitted within the last second. The MPI-IO layer calls it per
// operation to drive the storm-latency model.
func (p *PFS) NoteOp(c Class) int { return p.chans[c].noteOp() }

// RecentOps returns the burst concurrency without recording an operation.
func (p *PFS) RecentOps(c Class) int { return p.chans[c].recentOps() }

// Tag identifies a flow for observers: which job, rank, and node it
// belongs to.
type Tag struct {
	Job  int
	Rank int
	Node int
}
