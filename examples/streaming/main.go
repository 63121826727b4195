// Streaming + online phase detection example: TMIO's TCP streaming mode
// feeding the live telemetry gateway.
//
//	go run ./examples/streaming
//
// The paper's TMIO can ship its metrics over TCP instead of writing a
// file, and has been combined with FTIO (frequency techniques for I/O) to
// detect an application's I/O phases online. This example wires the whole
// loop up: an in-process gateway (internal/gateway, the same server
// cmd/iogateway runs standalone) ingests the per-phase records over the
// zero-copy binary frame protocol (docs/STREAM_FORMAT.md; the gateway
// sniffs it apart from JSON lines per connection) while a WaComM++
// simulation streams them, and its HTTP API is polled for the
// application's online B/B_L/T series and the FTIO next-burst forecast —
// the view a scheduler would act on mid-run.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"iobehind"
	"iobehind/internal/gateway"
	"iobehind/internal/tmio"
)

func main() {
	// The gateway: TCP ingest on an ephemeral port, HTTP on a test server.
	gw := gateway.New(gateway.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go gw.Serve(ln)
	web := httptest.NewServer(gw.Handler())
	defer web.Close()
	fmt.Print("gateway: TCP ingest and HTTP on ephemeral loopback ports\n\n")

	// Trace a WaComM++ run, streaming each closed phase to the gateway.
	// The slow file system widens the hourly write bursts so the online
	// detector has a signal to bin.
	sim := iobehind.NewSim(iobehind.Options{
		Ranks: 8,
		FS:    &iobehind.FSConfig{WriteCapacity: 64e6, ReadCapacity: 64e6},
	})
	sink, err := tmio.DialSink(ln.Addr().String(), "wacomm")
	if err != nil {
		log.Fatal(err)
	}
	sim.Tracer.SetSink(sink)
	report, err := sim.Run(iobehind.WacommMain(sim.IO, iobehind.WacommConfig{
		Particles:  200_000,
		Iterations: 24,
	}))
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if n := sink.Dropped(); n > 0 {
		fmt.Printf("(sink dropped %d records under backpressure)\n", n)
	}

	// Poll the gateway until the connection has drained: the consumer
	// empties its queue before the connection is released, so once no
	// connections are active everything sent has been aggregated.
	var info gateway.AppInfo
	for {
		var ok bool
		info, ok = gw.AppInfo("wacomm")
		if ok && gw.Stats().ConnsActive == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("gateway ingested %d records for %q\n", info.Records, info.ID)
	fmt.Printf("online required bandwidth: %.3g MB/s (offline report: %.3g MB/s)\n\n",
		info.RequiredBandwidth/1e6, report.RequiredBandwidth/1e6)

	// The online step series, as a scheduler would fetch them mid-run.
	var series struct {
		B []struct{ T, V float64 } `json:"b"`
		T []struct{ T, V float64 } `json:"t"`
	}
	getJSON(web.URL+"/apps/wacomm/series", &series)
	fmt.Printf("online series: %d B steps, %d T steps\n", len(series.B), len(series.T))

	// And the FTIO forecast over the live data.
	var pred gateway.PredictJSON
	getJSON(web.URL+"/apps/wacomm/predict", &pred)
	if !pred.OK {
		fmt.Println("no confident forecast (period not detectable yet)")
		return
	}
	fmt.Printf("FTIO over the stream: period %.2f s, confidence %.2f\n",
		pred.PeriodSec, pred.Confidence)
	fmt.Printf("predicted next burst (had the app continued): t = %.1f s\n",
		pred.NextBurstSec)
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
