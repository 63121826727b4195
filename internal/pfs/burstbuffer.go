package pfs

import (
	"fmt"

	"iobehind/internal/des"
)

// BurstBufferConfig describes a node-local burst buffer tier (NVMe or
// similar). The paper's future work proposes "a similar definition [of the
// required bandwidth] for synchronous I/O in the presence of burst
// buffers": with a buffer in front of the file system, even a synchronous
// burst completes at buffer speed, and the *drain* to the parallel file
// system is what needs provisioning — RequiredDrainRate computes it.
type BurstBufferConfig struct {
	// Capacity in bytes. A full buffer back-pressures writers.
	Capacity int64
	// WriteRate is the absorb bandwidth in bytes/s (the burst speed).
	WriteRate float64
	// DrainRate limits the background drain to the file system in
	// bytes/s. This is the buffer's bandwidth footprint on the shared
	// system — the quantity to keep as low as the workload allows. The
	// drainer paces itself to it chunk by chunk, the way an ADIO agent
	// paces a limited request.
	DrainRate float64
	// DrainChunk is the drain granularity in bytes. Defaults to 64 MiB.
	DrainChunk int64
}

func (c *BurstBufferConfig) applyDefaults() {
	if c.DrainChunk <= 0 {
		c.DrainChunk = 64 << 20
	}
}

// Validate reports configuration errors.
func (c BurstBufferConfig) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("pfs: burst buffer capacity must be positive")
	}
	if c.WriteRate <= 0 || c.DrainRate <= 0 {
		return fmt.Errorf("pfs: burst buffer rates must be positive")
	}
	return nil
}

// RequiredDrainRate is the burst-buffer analogue of the paper's required
// bandwidth: the minimal drain rate such that a periodic burst of
// bytesPerBurst every period never accumulates in the buffer. It is the
// synchronous application's true demand on the shared file system.
func RequiredDrainRate(bytesPerBurst int64, period des.Duration) float64 {
	if period <= 0 {
		return 0
	}
	return float64(bytesPerBurst) / period.Seconds()
}

// MinCapacity returns the buffer size needed to absorb a burst of
// bytesPerBurst at writeRate while draining at drainRate: the peak level
// reached at the end of the burst.
func MinCapacity(bytesPerBurst int64, writeRate, drainRate float64) int64 {
	if writeRate <= 0 {
		return bytesPerBurst
	}
	if drainRate >= writeRate {
		return 0
	}
	burstDur := float64(bytesPerBurst) / writeRate
	peak := float64(bytesPerBurst) - drainRate*burstDur
	if peak < 0 {
		peak = 0
	}
	return int64(peak + 0.5)
}

// BurstBuffer is one buffer instance draining into a PFS write channel.
type BurstBuffer struct {
	e       *des.Engine
	fs      *PFS
	cfg     BurstBufferConfig
	tag     Tag
	level   int64 // bytes currently buffered (including in-drain chunk)
	drainer *des.Proc
	work    *des.Completion // fired when data arrives for an idle drainer
	space   *des.Completion // fired when the drainer frees room
	drained int64           // total bytes moved to the PFS
	closed  bool

	// The write being absorbed: bytes still to absorb, the chunk in
	// flight, and the writer's continuation (nil when no write is in
	// progress). absorbNextFn and absorbedFn are the write's two event
	// callbacks, bound once so a write allocates nothing.
	remaining    int64
	chunk        int64
	then         func()
	absorbNextFn func()
	absorbedFn   func()
}

// NewBurstBuffer creates a buffer draining to fs under the given flow tag.
// The drainer process starts immediately and runs until Close.
func NewBurstBuffer(e *des.Engine, fs *PFS, cfg BurstBufferConfig, tag Tag) *BurstBuffer {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg.applyDefaults()
	bb := &BurstBuffer{
		e: e, fs: fs, cfg: cfg, tag: tag,
		work: des.NewCompletion(e),
	}
	bb.absorbNextFn = bb.absorbNext
	bb.absorbedFn = bb.absorbed
	bb.drainer = e.Spawn(fmt.Sprintf("bb-drainer-j%dr%d", tag.Job, tag.Rank), bb.drain)
	return bb
}

// Level returns the bytes currently buffered.
func (bb *BurstBuffer) Level() int64 { return bb.level }

// Drained returns the total bytes moved to the file system so far.
func (bb *BurstBuffer) Drained() int64 { return bb.drained }

// Write absorbs bytes into the buffer at WriteRate, back-pressuring the
// writer while the buffer is full, and calls then once the last byte has
// been absorbed (not drained). The write runs as engine events, not in a
// process: each absorbed chunk is a timed event, and a full buffer chains
// the write onto the drainer's next freed chunk. A write with nothing to
// absorb calls then before Write returns. The buffer absorbs one write at
// a time: a Write before the previous one's then has run panics.
func (bb *BurstBuffer) Write(bytes int64, then func()) {
	if bb.closed {
		panic("pfs: write on closed burst buffer")
	}
	if bb.then != nil {
		panic("pfs: burst-buffer write while another is absorbing")
	}
	bb.remaining, bb.then = bytes, then
	bb.absorbNext()
}

// absorbNext starts absorbing the next chunk of the write in progress, or
// waits for the drainer to free room while the buffer is full, or, once
// nothing remains, hands over to the write's continuation.
func (bb *BurstBuffer) absorbNext() {
	if bb.remaining <= 0 {
		then := bb.then
		bb.then = nil
		then()
		return
	}
	room := bb.cfg.Capacity - bb.level
	if room <= 0 {
		// Full: resume when the drainer frees space.
		if bb.space == nil || bb.space.Done() {
			bb.space = des.NewCompletion(bb.e)
		}
		bb.space.Then(bb.absorbNextFn)
		return
	}
	bb.chunk = min(bb.remaining, room)
	at := bb.e.Now().Add(des.DurationOf(float64(bb.chunk) / bb.cfg.WriteRate))
	bb.e.Schedule(at, des.PrioNormal, bb.absorbedFn)
}

// absorbed lands the chunk in flight in the buffer, wakes the drainer and
// goes on with the write.
func (bb *BurstBuffer) absorbed() {
	bb.level += bb.chunk
	bb.remaining -= bb.chunk
	bb.kickDrainer()
	bb.absorbNext()
}

// kickDrainer wakes an idle drainer.
func (bb *BurstBuffer) kickDrainer() {
	if !bb.work.Done() {
		bb.work.Complete()
	}
}

// drain is the background drainer: it moves buffered bytes to the file
// system in chunks and wakes blocked writers as space frees up. Each chunk
// is a full-speed transfer followed by a sleep until chunk/DrainRate has
// passed since it began: the paper's Case A, with no deficit carried over
// when a transfer overruns its slot.
func (bb *BurstBuffer) drain(p *des.Proc) {
	for {
		for bb.level == 0 {
			if bb.closed {
				return
			}
			bb.work = des.NewCompletion(bb.e)
			bb.work.Wait(p)
		}
		chunk := bb.cfg.DrainChunk
		if chunk > bb.level {
			chunk = bb.level
		}
		began := p.Now()
		bb.fs.Transfer(p, Write, chunk, bb.tag)
		bb.level -= chunk
		bb.drained += chunk
		// Space freed: release blocked writers (they re-check room).
		if bb.space != nil && !bb.space.Done() {
			bb.space.Complete()
		}
		slot := des.DurationOf(float64(chunk) / bb.cfg.DrainRate)
		if rest := slot - p.Now().Sub(began); rest > 0 {
			p.Sleep(rest)
		}
	}
}

// Close stops the drainer once the buffer is empty. Pending data continues
// to drain first.
func (bb *BurstBuffer) Close() {
	if bb.closed {
		return
	}
	bb.closed = true
	bb.kickDrainer()
}
