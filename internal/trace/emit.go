package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
)

// Emitter captures a trace from a simulated run. It implements
// mpiio.Interceptor (and mpiio.OpenObserver) and records every MPI-IO
// call at zero simulated cost, so it composes with a charging tracer via
// mpiio.Tee — list the emitter first so it timestamps each call before
// the tracer applies its per-call overhead:
//
//	em := trace.NewEmitter(sys, "my-app")
//	tr := tmio.Attach(sys, strat, tmioCfg)   // installs itself…
//	sys.SetInterceptor(mpiio.Tee(em, tr))    // …then compose both
//
// NewEmitter must run before tmio.Attach: both register MPI_Finalize
// hooks, and the emitter's must fire first so the finalize record carries
// the application's finalize time, not the tracer's post-processing time.
//
// The DES engine runs exactly one process at a time, so the emitter's
// append-only record log needs no locking and its global order is
// deterministic.
type Emitter struct {
	app   string
	world *mpi.World
	recs  []*Record
	ranks []emitterRank
}

type emitterRank struct {
	fids    map[*mpiio.File]int
	nextFid int
	rids    map[*mpiio.Request]int
	nextRid int
	// pendingSync / pendingWait index recs entries whose Te is filled at
	// the matching End callback. Sync ops and waits cannot nest within a
	// rank, so one slot each suffices.
	pendingSync int
	pendingWait int
}

// NewEmitter creates an emitter for the system's world and registers its
// MPI_Finalize hook. The caller composes it into the interceptor chain
// (see the type comment). app tags the trace header.
func NewEmitter(sys *mpiio.System, app string) *Emitter {
	em := &Emitter{app: app, world: sys.World()}
	em.ranks = make([]emitterRank, sys.World().Size())
	for i := range em.ranks {
		em.ranks[i] = emitterRank{
			fids: map[*mpiio.File]int{}, nextFid: 1,
			rids: map[*mpiio.Request]int{}, nextRid: 1,
			pendingSync: -1, pendingWait: -1,
		}
	}
	sys.World().AddFinalizeHook(em.finalize)
	return em
}

func (em *Emitter) add(rec Record) *Record {
	p := &rec
	em.recs = append(em.recs, p)
	return p
}

// fid returns the per-rank handle id, opening the file implicitly when
// the emitter never saw an open (e.g. it was installed after the fact).
func (em *Emitter) fid(r *mpi.Rank, f *mpiio.File, now des.Time) int {
	er := &em.ranks[r.ID()]
	if id, ok := er.fids[f]; ok {
		return id
	}
	id := er.nextFid
	er.nextFid++
	er.fids[f] = id
	em.add(Record{
		Op: OpOpen, Rank: r.ID(), Node: em.node(r), T: int64(now),
		File: f.Name(), Fid: id,
	})
	return id
}

func (em *Emitter) node(r *mpi.Rank) int {
	rpn := em.world.Config().RanksPerNode
	if rpn <= 0 {
		return 0
	}
	return r.ID() / rpn
}

// FileOpened implements mpiio.OpenObserver.
func (em *Emitter) FileOpened(r *mpi.Rank, f *mpiio.File) {
	em.fid(r, f, r.Now())
}

// SyncBegin implements mpiio.Interceptor.
func (em *Emitter) SyncBegin(r *mpi.Rank, op mpiio.Op) {
	name := OpWriteAt
	switch {
	case op.Collective && op.Class == pfs.Write:
		name = OpWriteAtAll
	case op.Collective:
		name = OpReadAtAll
	case op.Class == pfs.Read:
		name = OpReadAt
	}
	now := r.Now()
	em.add(Record{
		Op: name, Rank: r.ID(), T: int64(now),
		Fid: em.fid(r, op.File, now), Off: op.Offset, N: op.Bytes,
	})
	em.ranks[r.ID()].pendingSync = len(em.recs) - 1
}

// SyncEnd implements mpiio.Interceptor.
func (em *Emitter) SyncEnd(r *mpi.Rank, op mpiio.Op, start, end des.Time) {
	er := &em.ranks[r.ID()]
	if er.pendingSync >= 0 {
		em.recs[er.pendingSync].Te = int64(end)
		er.pendingSync = -1
	}
}

// AsyncSubmitted implements mpiio.Interceptor.
func (em *Emitter) AsyncSubmitted(r *mpi.Rank, req *mpiio.Request) {
	er := &em.ranks[r.ID()]
	name := OpIwriteAt
	if req.Class() == pfs.Read {
		name = OpIreadAt
	}
	rid := er.nextRid
	er.nextRid++
	er.rids[req] = rid
	t := req.SubmittedAt()
	em.add(Record{
		Op: name, Rank: r.ID(), T: int64(t),
		Fid: em.fid(r, req.File(), t), Off: req.Offset(), N: req.Bytes(), Rid: rid,
	})
}

// WaitBegin implements mpiio.Interceptor.
func (em *Emitter) WaitBegin(r *mpi.Rank, req *mpiio.Request) {
	er := &em.ranks[r.ID()]
	rid, ok := er.rids[req]
	if !ok {
		return // wait for a request submitted before the emitter attached
	}
	delete(er.rids, req)
	em.add(Record{Op: OpWait, Rank: r.ID(), T: int64(r.Now()), Rid: rid})
	er.pendingWait = len(em.recs) - 1
}

// WaitEnd implements mpiio.Interceptor.
func (em *Emitter) WaitEnd(r *mpi.Rank, req *mpiio.Request) {
	er := &em.ranks[r.ID()]
	if er.pendingWait >= 0 {
		em.recs[er.pendingWait].Te = int64(r.Now())
		er.pendingWait = -1
	}
}

// finalize is the MPI_Finalize hook: it stamps the application's finalize
// time. Registered before any charging tracer's hook, it records when the
// application called MPI_Finalize, so a replay finalizes at the same
// instant and incurs the same post-runtime overhead.
func (em *Emitter) finalize(r *mpi.Rank) {
	em.add(Record{Op: OpFinalize, Rank: r.ID(), T: int64(r.Now())})
}

// Records returns the captured records (no meta header) in global
// emission order. The slice is shared; callers must not mutate it.
func (em *Emitter) Records() []*Record { return em.recs }

// Encode writes the complete trace — meta header plus all captured
// records — as JSON lines.
func (em *Emitter) Encode(w io.Writer) error {
	meta := Record{
		V: Version, Op: OpMeta, App: em.app,
		Ranks: em.world.Size(), RPN: em.world.Config().RanksPerNode,
		Clock: "sim",
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("trace: encode meta: %w", err)
	}
	for _, rec := range em.recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("trace: encode record: %w", err)
		}
	}
	return nil
}
