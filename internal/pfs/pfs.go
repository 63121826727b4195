// Package pfs models a shared parallel file system as a fluid-flow network.
//
// Bandwidth on each channel (one for writes, one for reads, mirroring the
// separate peak figures of IBM Spectrum Scale on the Lichtenberg cluster) is
// divided among concurrent flows by weighted max–min fairness: every flow
// receives its fair share of the remaining capacity in proportion to its
// weight, unless a per-flow cap (a bandwidth limit) entitles it to less, in
// which case the spare capacity cascades to the other flows. This is the
// behaviour the paper exploits: a throttled asynchronous job returns its
// spare bandwidth to the synchronous jobs competing for the file system.
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

// Unlimited is the cap value for flows without a bandwidth limit.
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
	// SharedChannels makes reads and writes compete for one capacity
	// (WriteCapacity) instead of the default independent channels —
	// appropriate for systems whose peak figures are not direction-
	// independent.
	SharedChannels bool
	// InjectionCap, when positive, limits the aggregate rate of each
	// node's flows (grouped by Tag.Job and Tag.Node) to the node's NIC
	// bandwidth in bytes/s. Allocation becomes two-level hierarchical
	// max–min: capacity is shared fairly across nodes first, then within
	// each node across its flows. A single node can then never draw the
	// whole file-system bandwidth, however many ranks it hosts.
	InjectionCap float64
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
	p.chans[Write] = newChannel(e, "write", cfg.WriteCapacity)
	if cfg.SharedChannels {
		p.chans[Read] = p.chans[Write]
	} else {
		p.chans[Read] = newChannel(e, "read", cfg.ReadCapacity)
	}
	p.chans[Write].injectionCap = cfg.InjectionCap
	p.chans[Read].injectionCap = cfg.InjectionCap
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
// either channel, with the current time and the channel's flows. Used by
// the cluster simulator to record bandwidth distribution over time.
func (p *PFS) SetObserver(fn func(now des.Time, class Class, flows []*Flow)) {
	p.chans[Write].observer = func(now des.Time, flows []*Flow) { fn(now, Write, flows) }
	if p.chans[Read] == p.chans[Write] {
		// Shared channels: one channel, one observer; callbacks carry
		// Write as the class label for the combined traffic.
		return
	}
	p.chans[Read].observer = func(now des.Time, flows []*Flow) { fn(now, Read, flows) }
}

// StartFlow begins transferring bytes on the class channel and returns
// immediately. weight sets the flow's fair-share weight (e.g. the job's
// node count); cap limits the flow's rate in bytes/s (Unlimited for none).
// Zero-byte flows complete at the current instant.
func (p *PFS) StartFlow(class Class, bytes int64, weight, cap float64, tag Tag) *Flow {
	if bytes < 0 {
		panic("pfs: negative transfer size")
	}
	if weight <= 0 {
		panic("pfs: flow weight must be positive")
	}
	return p.chans[class].start(float64(bytes), weight, cap, tag)
}

// Transfer runs a blocking transfer: it starts a flow and parks proc until
// the last byte has moved. It returns the transfer's start and end times.
func (p *PFS) Transfer(proc *des.Proc, class Class, bytes int64, weight, cap float64, tag Tag) (start, end des.Time) {
	f := p.StartFlow(class, bytes, weight, cap, tag)
	f.Wait(proc)
	return f.Started(), f.Finished()
}

// SetFaultFactors scales the effective capacity of each class's channel
// by a factor in [0,1] (1 restores full capacity; 0 is an outage,
// landing on the channel's 1 B/s floor so flows stall but never
// deadlock). A factor composes multiplicatively with the noise model:
// effective capacity = base × noise × fault. With SharedChannels the two
// classes share one channel and the stricter (smaller) factor applies —
// an outage on either direction stalls the combined traffic. The
// fault-injection subsystem (internal/faults) drives this on window
// boundaries.
func (p *PFS) SetFaultFactors(write, read float64) {
	if p.chans[Read] == p.chans[Write] {
		p.chans[Write].setFaultFactor(math.Min(write, read))
		return
	}
	p.chans[Write].setFaultFactor(write)
	p.chans[Read].setFaultFactor(read)
}

// FaultFactor returns the fault factor currently applied to the class's
// channel (1 when healthy).
func (p *PFS) FaultFactor(class Class) float64 { return p.chans[class].faultFactor }

// ActiveFlows returns the number of in-flight flows on the class channel.
func (p *PFS) ActiveFlows(c Class) int { return len(p.chans[c].flows) }

// Demand returns the sum of the rates all active flows on the channel
// would like (cap, or the channel capacity for unlimited flows). The
// cluster simulator uses it to detect contention.
func (p *PFS) Demand(c Class) float64 {
	ch := p.chans[c]
	var d float64
	for _, f := range ch.flows {
		want := f.cap
		if math.IsInf(want, 1) || want > ch.capacity {
			want = ch.capacity
		}
		d += want
	}
	return d
}

// NoteOp records an operation submission on the class channel and returns
// the burst concurrency: the number of operations (including this one)
// submitted within the last second. The MPI-IO layer calls it per
// operation to drive the storm-latency model.
func (p *PFS) NoteOp(c Class) int { return p.chans[c].noteOp() }

// RecentOps returns the burst concurrency without recording an operation.
func (p *PFS) RecentOps(c Class) int { return p.chans[c].recentOps() }

// Tag identifies a flow for observers and for the injection-cap grouping:
// which job, rank, and node it belongs to.
type Tag struct {
	Job  int
	Rank int
	Node int
}
