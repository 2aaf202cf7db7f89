// Livemetrics: watch a simulation run live. Heartbeats stream as NDJSON
// to a file while an HTTP endpoint serves the latest metric snapshot
// (Prometheus text format at /metrics, JSON at /vars), and a callback
// prints a progress line every interval. Ctrl-C cancels the run cleanly
// at the next heartbeat.
//
//	go run ./examples/livemetrics
//	curl localhost:<port>/metrics     # while it runs
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"

	"ubscache"
)

func main() {
	w, err := ubscache.ParseWorkload("server_001")
	if err != nil {
		log.Fatal(err)
	}

	hb, err := os.Create("heartbeats.ndjson")
	if err != nil {
		log.Fatal(err)
	}
	defer hb.Close()

	// Three observers share the run: an NDJSON stream, an HTTP metrics
	// server, and a console progress callback.
	server := ubscache.NewMetricsServer()
	ln, stop, err := server.Start("localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	fmt.Printf("serving metrics on http://%s/metrics (and /vars)\n", ln)

	progress := ubscache.FuncObserver{
		OnHeartbeat: func(h *ubscache.Heartbeat) {
			fmt.Printf("\r%s %5.1f%%  rolling IPC %.3f  L1-I MPKI %6.1f  MSHR %d ",
				h.Phase, 100*h.Progress(), h.RollingIPC, h.MPKI, h.MSHROccupancy)
		},
	}

	opts := ubscache.Quick() // 200K warmup + 800K measured instructions
	opts.Observer = ubscache.Observers{ubscache.NewHeartbeatWriter(hb), server, progress}
	opts.HeartbeatEvery = 50_000 // cycles between heartbeats

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	rep, err := ubscache.SimulateWorkloadContext(ctx, ubscache.UBS(), w, opts)
	fmt.Println()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("done: %s on %s — IPC %.3f, L1-I MPKI %.1f\n",
		rep.Workload, rep.Design, rep.IPC(), rep.MPKI())
	fmt.Println("heartbeat stream written to heartbeats.ndjson")

	// The final snapshot stays queryable after the run.
	resp, err := http.Get(fmt.Sprintf("http://%s/vars", ln))
	if err == nil {
		resp.Body.Close()
		fmt.Printf("final snapshot still served at http://%s/vars (status %s)\n", ln, resp.Status)
	}
}
