package adio

import (
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

// BenchmarkThrottledRequest measures the paper's throttle chain end to
// end: an application process submits an asynchronous 64 MiB write under
// a 1 GB/s limit and waits for it. The agent splits it into eight 8 MiB
// sub-requests on a 10 GB/s file system, so every op is eight blocking
// transfers, each followed by a Case-A sleep.
func BenchmarkThrottledRequest(b *testing.B) {
	b.ReportAllocs()
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 10e9, ReadCapacity: 10e9})
	a := NewAgent(e, fs, nil, Config{SubRequestSize: 8 << 20})
	a.SetLimit(1e9)
	e.Spawn("app", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			a.Submit(pfs.Write, 64<<20, true).Wait(p)
		}
		a.Close()
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
