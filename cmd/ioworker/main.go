// Command ioworker executes sweep points for an iofabric coordinator: it
// pulls leases over TCP, builds each point from the config the lease
// carries with the constructor the submitter's sweep used (refusing to
// run on any cache-key skew), executes it through the runner, and
// streams the result back. The worker keeps no cache: the coordinator probes its own
// before leasing a point and stores the result it accepts, where every
// later sweep, and any local iosweep run whose -cache is the
// coordinator's directory, finds it.
//
//	ioworker -coordinator 127.0.0.1:7777
//	ioworker -coordinator coord:7777 -j 4
//
// A worker survives coordinator restarts: connections are retried with
// jittered exponential backoff, and a result computed while disconnected
// is re-delivered after reconnect (the coordinator matches it by content
// address, so it even survives the lease having been re-dispatched).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"iobehind/internal/fabric"
)

func main() {
	os.Exit(run())
}

func run() int {
	coordinator := flag.String("coordinator", "127.0.0.1:7777", "fabric coordinator TCP address")
	id := flag.String("id", "", "worker name in leases and logs (default: host PID tag)")
	executors := flag.Int("j", 0, "concurrent point executors (default 1)")
	quiet := flag.Bool("q", false, "suppress per-point logs")
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	opts := fabric.WorkerOptions{
		Coordinator: *coordinator,
		ID:          *id,
		Executors:   *executors,
		Logf:        logf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "ioworker: %s pulling from %s\n", *id, *coordinator)
	if err := fabric.RunWorker(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "ioworker:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "ioworker: shutting down")
	return 0
}
