// Command gpunoc-server runs the simulation-as-a-service HTTP API from
// internal/server: clients POST experiment jobs and poll for results, a
// bounded worker pool simulates them with the same harness ccbench uses, and
// finished results are content-addressed in an on-disk cache shared with
// ccbench's -cache-dir — a job whose key is already cached is answered
// synchronously without simulating.
//
// Usage:
//
//	gpunoc-server -cache-dir DIR [-addr :8080] [-workers N]
//
// API (see internal/server for the full contract):
//
//	POST /v1/jobs        {"config":"small","seed":5,"experiment":"fig2",
//	                      "scale":"quick"} -> 202 queued, or 200 when cached
//	GET  /v1/jobs/{key}  poll a submitted job
//	GET  /v1/healthz     liveness probe
//
// Request bodies are capped at server.MaxRequestBytes, and a client gets
// readHeaderTimeout to send its request headers before the connection is
// dropped, so slow or oversized requests cannot pin connections.
//
// SIGTERM or SIGINT drains the server: it stops accepting connections, gives
// in-flight requests up to shutdownTimeout, lets the running jobs finish
// (their results land in the cache), drops the queued ones, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gpunoc/internal/experiments"
	"gpunoc/internal/server"
)

// readHeaderTimeout bounds how long a connection may take to deliver its
// request headers.
const readHeaderTimeout = 10 * time.Second

// shutdownTimeout bounds how long a draining server waits for in-flight
// HTTP requests before closing their connections.
const shutdownTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "result cache directory (required; shared with ccbench -cache-dir)")
	workers := flag.Int("workers", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
	flag.Parse()

	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "gpunoc-server: -cache-dir is required")
		os.Exit(2)
	}
	if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-server: %v\n", err)
		os.Exit(2)
	}
	n := *workers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	s, err := server.New(server.Config{
		Cache:   &experiments.Cache{Dir: *cacheDir},
		Workers: n,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-server: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	fmt.Fprintf(os.Stderr, "gpunoc-server: listening on %s (cache %s, %d workers)\n", *addr, *cacheDir, n)
	hs := &http.Server{Addr: *addr, Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		fmt.Fprintf(os.Stderr, "gpunoc-server: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process outright

	fmt.Fprintln(os.Stderr, "gpunoc-server: draining")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-server: shutdown: %v\n", err)
	}
	s.Close()
	fmt.Fprintln(os.Stderr, "gpunoc-server: stopped")
}
