// Package mpiio is the MPI-IO surface the workloads program against:
// File_write_at / File_read_at and their non-blocking i-variants, backed by
// the per-rank ADIO I/O agent of internal/adio.
//
// The package also provides the interception seam that stands in for the
// PMPI interface: an Interceptor installed on the System observes every
// I/O call and every matching wait — exactly the calls TMIO hooks via
// LD_PRELOAD on a real system — without any change to application code.
package mpiio

import (
	"fmt"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/pfs"
)

// Op describes one blocking MPI-IO operation to an Interceptor: the file,
// the access class, the file offset and byte count the application asked
// for, and whether the call was a collective (write_at_all / read_at_all —
// Bytes is then the per-rank piece, as each rank passed it). The offset is
// carried for observers (tracers, trace emitters) even though the fluid
// file-system model does not price it; see File.collective.
type Op struct {
	File       *File
	Class      pfs.Class
	Offset     int64
	Bytes      int64
	Collective bool
}

// Interceptor observes MPI-IO activity on one world. All methods run on
// the calling rank's goroutine, so an implementation may charge tracing
// overhead by sleeping the rank. A nil interceptor means no tracing.
//
// An Interceptor that additionally implements OpenObserver is also told
// about every System.Open.
type Interceptor interface {
	// AsyncSubmitted fires when a rank issues a non-blocking operation
	// (MPI_File_iwrite_at / iread_at), right after submission.
	AsyncSubmitted(r *mpi.Rank, req *Request)
	// WaitBegin and WaitEnd bracket the matching request-complete call.
	WaitBegin(r *mpi.Rank, req *Request)
	WaitEnd(r *mpi.Rank, req *Request)
	// SyncBegin and SyncEnd bracket a blocking operation
	// (MPI_File_write_at / read_at and their _all collective variants).
	SyncBegin(r *mpi.Rank, op Op)
	SyncEnd(r *mpi.Rank, op Op, start, end des.Time)
}

// OpenObserver is an optional extension of Interceptor: implementations
// are notified when a rank opens a file (MPI_File_open), before any I/O
// on the handle. Trace emitters use it to bind file ids to path names.
type OpenObserver interface {
	FileOpened(r *mpi.Rank, f *File)
}

// tee fans every interception out to several interceptors in order. The
// order is load-bearing: a zero-cost observer (e.g. a trace emitter) listed
// before a tracer that charges simulated overhead sees event times before
// that overhead is applied.
type tee struct{ members []Interceptor }

// Tee combines interceptors into one; nil members are skipped. Events are
// delivered in member order. FileOpened reaches the members that implement
// OpenObserver.
func Tee(members ...Interceptor) Interceptor {
	t := &tee{}
	for _, m := range members {
		if m != nil {
			t.members = append(t.members, m)
		}
	}
	return t
}

func (t *tee) AsyncSubmitted(r *mpi.Rank, req *Request) {
	for _, m := range t.members {
		m.AsyncSubmitted(r, req)
	}
}
func (t *tee) WaitBegin(r *mpi.Rank, req *Request) {
	for _, m := range t.members {
		m.WaitBegin(r, req)
	}
}
func (t *tee) WaitEnd(r *mpi.Rank, req *Request) {
	for _, m := range t.members {
		m.WaitEnd(r, req)
	}
}
func (t *tee) SyncBegin(r *mpi.Rank, op Op) {
	for _, m := range t.members {
		m.SyncBegin(r, op)
	}
}
func (t *tee) SyncEnd(r *mpi.Rank, op Op, start, end des.Time) {
	for _, m := range t.members {
		m.SyncEnd(r, op, start, end)
	}
}
func (t *tee) FileOpened(r *mpi.Rank, f *File) {
	for _, m := range t.members {
		if o, ok := m.(OpenObserver); ok {
			o.FileOpened(r, f)
		}
	}
}

// System is the MPI-IO subsystem of one world: one I/O agent per rank plus
// the interception seam.
type System struct {
	w           *mpi.World
	fs          *pfs.PFS
	agents      []*adio.Agent
	agentCfg    adio.Config
	interceptor Interceptor
	closed      bool
}

// NewSystem creates the subsystem with one agent per rank. agentCfg.Tag's
// Rank field is overwritten per rank; its Job field is preserved. Agents
// are shut down automatically when every rank's main function returns.
func NewSystem(w *mpi.World, fs *pfs.PFS, agentCfg adio.Config) *System {
	s := &System{w: w, fs: fs, agentCfg: agentCfg}
	for _, r := range w.Ranks() {
		cfg := agentCfg
		cfg.Tag.Rank = r.ID()
		cfg.Tag.Node = r.ID() / w.Config().RanksPerNode
		s.agents = append(s.agents, adio.NewAgent(w.Engine(), fs, r, cfg))
	}
	w.AllDone().Then(s.Close)
	return s
}

// SetInterceptor installs (or removes, with nil) the tracing hook.
func (s *System) SetInterceptor(i Interceptor) { s.interceptor = i }

// Interceptor returns the installed hook, or nil.
func (s *System) Interceptor() Interceptor { return s.interceptor }

// World returns the world this subsystem serves.
func (s *System) World() *mpi.World { return s.w }

// FS returns the backing file system.
func (s *System) FS() *pfs.PFS { return s.fs }

// Agent returns rank's I/O agent — the handle for the user-level
// bandwidth-limit control.
func (s *System) Agent(rank int) *adio.Agent { return s.agents[rank] }

// SetFaults installs (or removes, with nil) the fault model every rank's
// agent consults per sub-request.
func (s *System) SetFaults(m adio.FaultModel) {
	for _, a := range s.agents {
		a.SetFaults(m)
	}
}

// Close shuts down all agents. Idempotent.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, a := range s.agents {
		a.Close()
	}
}

// stallOnStorm models the client-visible cost of posting an I/O request
// while the servers are swamped: the caller stalls for a delay that grows
// with the burst concurrency. With throttled traffic the concurrency stays
// low and the stall is negligible; an unthrottled synchronized burst of
// thousands of small requests makes every rank pay — the paper's
// file-system "pollution by unnecessary short accesses".
func (s *System) stallOnStorm(r *mpi.Rank, class pfs.Class) {
	if s.agentCfg.SubmitLatencyPerFlow <= 0 && s.agentCfg.QueueLatencyPerFlow <= 0 {
		return
	}
	n := s.fs.NoteOp(class)
	if lat := adio.StormLatency(s.w.Engine(), s.agentCfg.SubmitLatencyPerFlow, n); lat > 0 {
		r.Proc().Sleep(lat)
	}
}

// Open returns a file handle for rank r. Each rank opening its own path
// models HACC-IO's individual-file-pointer mode; a shared name works too
// since the simulated file system tracks bandwidth, not contents.
func (s *System) Open(r *mpi.Rank, name string) *File {
	f := &File{sys: s, r: r, name: name}
	if o, ok := s.interceptor.(OpenObserver); ok {
		o.FileOpened(r, f)
	}
	return f
}

// File is an open MPI file handle bound to one rank.
type File struct {
	sys  *System
	r    *mpi.Rank
	name string
}

// Name returns the path given to Open.
func (f *File) Name() string { return f.name }

// Rank returns the owning rank.
func (f *File) Rank() *mpi.Rank { return f.r }

// WriteAt performs a blocking write of bytes at offset (MPI_File_write_at).
// Like all I/O in the modified MPICH, it is executed by the I/O agent and
// is therefore subject to the agent's bandwidth limit.
func (f *File) WriteAt(offset, bytes int64) { f.sync(pfs.Write, offset, bytes) }

// ReadAt performs a blocking read of bytes at offset (MPI_File_read_at).
func (f *File) ReadAt(offset, bytes int64) { f.sync(pfs.Read, offset, bytes) }

func (f *File) sync(class pfs.Class, offset, bytes int64) {
	op := Op{File: f, Class: class, Offset: offset, Bytes: bytes}
	if i := f.sys.interceptor; i != nil {
		i.SyncBegin(f.r, op)
	}
	start := f.r.Now()
	f.sys.stallOnStorm(f.r, class)
	req := f.sys.agents[f.r.ID()].Submit(class, bytes, false)
	req.Wait(f.r.Proc())
	if i := f.sys.interceptor; i != nil {
		i.SyncEnd(f.r, op, start, f.r.Now())
	}
}

// IwriteAt starts a non-blocking write (MPI_File_iwrite_at) and returns
// its request. The matching Request.Wait completes the operation.
func (f *File) IwriteAt(offset, bytes int64) *Request {
	return f.async(pfs.Write, offset, bytes)
}

// IreadAt starts a non-blocking read (MPI_File_iread_at).
func (f *File) IreadAt(offset, bytes int64) *Request {
	return f.async(pfs.Read, offset, bytes)
}

func (f *File) async(class pfs.Class, offset, bytes int64) *Request {
	f.sys.stallOnStorm(f.r, class)
	inner := f.sys.agents[f.r.ID()].Submit(class, bytes, true)
	req := &Request{f: f, r: f.r, inner: inner, class: class, offset: offset, bytes: bytes}
	if i := f.sys.interceptor; i != nil {
		i.AsyncSubmitted(f.r, req)
	}
	return req
}

// Request is a non-blocking MPI-IO operation handle.
type Request struct {
	f      *File
	r      *mpi.Rank
	inner  *adio.Request
	class  pfs.Class
	offset int64
	bytes  int64
	waited bool
}

// File returns the file the operation targets.
func (q *Request) File() *File { return q.f }

// Class returns whether the operation is a read or a write.
func (q *Request) Class() pfs.Class { return q.class }

// Offset returns the file offset the application asked for. The fluid
// file-system model does not price offsets, but observers (trace emitters)
// need them to reproduce the application's access pattern.
func (q *Request) Offset() int64 { return q.offset }

// Bytes returns the operation size.
func (q *Request) Bytes() int64 { return q.bytes }

// SubmittedAt returns when the application issued the operation.
func (q *Request) SubmittedAt() des.Time { return q.inner.Stats.Submitted }

// Wait blocks the owning rank until the operation completes (MPI_Wait).
// Waiting twice on the same request panics, as MPI would error.
func (q *Request) Wait() {
	if q.waited {
		panic(fmt.Sprintf("mpiio: request on %q waited twice", q.f.name))
	}
	q.waited = true
	if i := q.f.sys.interceptor; i != nil {
		i.WaitBegin(q.r, q)
	}
	q.inner.Wait(q.r.Proc())
	if i := q.f.sys.interceptor; i != nil {
		i.WaitEnd(q.r, q)
	}
}

// Stats exposes the agent-side execution record; valid only after Wait.
func (q *Request) Stats() *adio.RequestStats { return &q.inner.Stats }
