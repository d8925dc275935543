// Command tecore-server runs the TeCoRe Web UI: dataset selection,
// constraint editing with predicate auto-completion, MAP inference with
// the MLN or PSL backend, and the result statistics browser.
//
// With -data-dir the incremental solving sessions are durable: every
// mutation is journaled to a per-session WAL, checkpoints compact the
// journals on the -checkpoint interval and at shutdown, and a restarted
// server recovers every session (store, epoch, rules) before it starts
// serving; each session's first solve after a restart is cold.
//
// Usage:
//
//	tecore-server [-addr :8080] [-parallel N] [-pprof addr]
//	              [-data-dir DIR] [-checkpoint 5m] [-drain 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallel := flag.Int("parallel", 0, "worker pool size per solve (0 = all cores, 1 = sequential)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
	dataDir := flag.String("data-dir", "", "persist sessions under this directory (empty = in-memory only)")
	checkpointEvery := flag.Duration("checkpoint", 5*time.Minute, "checkpoint interval for durable sessions")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight requests (0 = unbounded)")
	flag.Parse()

	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux; serve
		// them on their own listener so profiling stays off the API
		// address and can bind to localhost only.
		go func() {
			fmt.Fprintf(os.Stderr, "pprof listening on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "tecore-server: pprof: %v\n", err)
			}
		}()
	}

	srv := server.NewWithConfig(server.Config{Parallelism: *parallel, DataDir: *dataDir})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if srv.Durable() {
		n, err := srv.RecoverSessions()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tecore-server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recovered %d session(s) from %s\n", n, *dataDir)
		if *checkpointEvery > 0 {
			go func() {
				t := time.NewTicker(*checkpointEvery)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						if err := srv.CheckpointAll(); err != nil {
							fmt.Fprintf(os.Stderr, "tecore-server: checkpoint: %v\n", err)
						}
					}
				}
			}()
		}
	}

	fmt.Fprintf(os.Stderr, "TeCoRe UI listening on %s\n", *addr)
	// Run blocks until SIGINT/SIGTERM, then drains in-flight requests,
	// checkpoints every durable session and closes the WALs.
	if err := srv.Run(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "tecore-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tecore-server: shut down cleanly")
}
