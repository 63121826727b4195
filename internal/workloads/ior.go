package workloads

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
)

// IorConfig models an IOR-style parallel I/O benchmark: every rank writes
// (and optionally reads back) Segments blocks of BlockSize bytes, in
// TransferSize pieces, with an optional compute delay between segments.
// Each phase ends in a synchronizing barrier, like IOR's fsync option.
// IOR is the community-standard harness this library's file-system model
// can be sanity-checked against; it also demonstrates the collective
// (write_at_all) versus individual-file-pointer access modes the paper
// distinguishes for HACC-IO.
type IorConfig struct {
	// Segments per rank. Default 4.
	Segments int
	// BlockSize per segment per rank in bytes. Default 256 MiB.
	BlockSize int64
	// TransferSize per operation in bytes. Default 16 MiB.
	TransferSize int64
	// ReadBack re-reads everything after the write phase.
	ReadBack bool
	// Collective uses write_at_all/read_at_all instead of individual
	// file pointers.
	Collective bool
	// Async uses the non-blocking i-variants with a compute overlap per
	// transfer (individual mode only).
	Async bool
	// ComputeBetween is inserted between segments (and overlapped by the
	// asynchronous variant). Default 0.
	ComputeBetween des.Duration
}

// WithDefaults fills zero fields.
func (c IorConfig) WithDefaults() IorConfig {
	if c.Segments <= 0 {
		c.Segments = 4
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256 << 20
	}
	if c.TransferSize <= 0 {
		c.TransferSize = 16 << 20
	}
	if c.TransferSize > c.BlockSize {
		c.TransferSize = c.BlockSize
	}
	return c
}

// TotalBytesPerRank returns the data each rank writes (and reads when
// ReadBack is set).
func (c IorConfig) TotalBytesPerRank() int64 {
	d := c.WithDefaults()
	return int64(d.Segments) * d.BlockSize
}

// IorMain returns the per-rank main of the IOR-style benchmark.
func IorMain(sys *mpiio.System, cfg IorConfig) func(*mpi.Rank) {
	cfg = cfg.WithDefaults()
	return func(r *mpi.Rank) {
		f := sys.Open(r, fmt.Sprintf("ior-%06d.dat", r.ID()))
		transfersPerBlock := int(cfg.BlockSize / cfg.TransferSize)
		if transfersPerBlock < 1 {
			transfersPerBlock = 1
		}

		phase := func(write bool) {
			var pending *mpiio.Request
			for seg := 0; seg < cfg.Segments; seg++ {
				offset := int64(seg) * cfg.BlockSize
				for tr := 0; tr < transfersPerBlock; tr++ {
					off := offset + int64(tr)*cfg.TransferSize
					switch {
					case cfg.Collective && write:
						f.WriteAtAll(off, cfg.TransferSize)
					case cfg.Collective:
						f.ReadAtAll(off, cfg.TransferSize)
					case cfg.Async && write:
						if pending != nil {
							pending.Wait()
						}
						pending = f.IwriteAt(off, cfg.TransferSize)
						if cfg.ComputeBetween > 0 {
							r.Compute(cfg.ComputeBetween / des.Duration(transfersPerBlock))
						}
					case cfg.Async:
						if pending != nil {
							pending.Wait()
						}
						pending = f.IreadAt(off, cfg.TransferSize)
						if cfg.ComputeBetween > 0 {
							r.Compute(cfg.ComputeBetween / des.Duration(transfersPerBlock))
						}
					case write:
						f.WriteAt(off, cfg.TransferSize)
					default:
						f.ReadAt(off, cfg.TransferSize)
					}
				}
				if !cfg.Async && cfg.ComputeBetween > 0 {
					r.Compute(cfg.ComputeBetween)
				}
			}
			if pending != nil {
				pending.Wait()
			}
			r.Barrier()
		}

		phase(true)
		if cfg.ReadBack {
			phase(false)
		}
		r.Finalize()
	}
}
