// Command dtserve serves trained decision-tree and forest models over
// HTTP. It loads tree-JSON model files written by dtree -save and
// forest-JSON ensembles written by dtree -forest N -save, compiles both
// into the fused interleaved layout (internal/forest; a tree is a
// one-member table), and answers batched prediction requests through the
// parallel engine (internal/predict). Models can be
// hot-swapped under live traffic with PUT /v1/models/NAME;
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// Example:
//
//	dtree -n 50000 -algo sprint -save model.json
//	dtree -n 50000 -algo hunt -forest 100 -save grove.json
//	dtserve -addr :8080 -model quest=model.json -model grove=grove.json &
//	curl -s localhost:8080/v1/predict -X POST -d '{
//	  "model": "quest",
//	  "records": [{"salary": 60000, "commission": 0, "age": 35,
//	               "elevel": "level2", "car": "make3", "zipcode": "zip4",
//	               "hvalue": 150000, "hyears": 12, "loan": 20000}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partree/internal/serve"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var f flagError
	if err != nil && !errors.Is(err, flag.ErrHelp) && !errors.As(err, &f) {
		fmt.Fprintln(os.Stderr, "dtserve:", err)
	}
	os.Exit(exitCode(err))
}

// flagError is a command line the flag package rejected, before any model
// is loaded; the flag package has already printed the error and the usage.
type flagError struct{ error }

// exitCode is the process status for run's result: 0 on success or -h,
// 2 for a rejected command line (as the flag package's own ExitOnError
// handling would), 1 for any other failure.
func exitCode(err error) int {
	var f flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &f):
		return 2
	}
	return 1
}

// preload checksum-verifies one model file against its .sha256 sidecar
// (written by dtree -save; absent sidecars verify trivially) and loads it
// into the registry.
func preload(stdout io.Writer, reg *serve.Registry, name, path string) (*serve.Entry, error) {
	if verified, err := serve.VerifyFileChecksum(path); err != nil {
		return nil, err
	} else if verified {
		fmt.Fprintf(stdout, "checksum verified for %s\n", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reg.Load(name, f)
}

// modelFlags collects repeated -model name=path pairs, rejecting any
// other form while the command line is parsed.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }
func (m *modelFlags) Set(v string) error {
	if name, path, ok := strings.Cut(v, "="); !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, v)
	return nil
}

// run parses args, preloads the -model files and serves until SIGINT or
// SIGTERM has drained the server. Every -model spec is checked, while the
// flags are parsed, before any model is loaded.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dtserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var models modelFlags
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 0, "prediction workers (0 = GOMAXPROCS)")
		maxBatch = fs.Int("max-batch", 100000, "largest accepted predict batch")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request handling timeout")
		drain    = fs.Duration("drain-timeout", 10*time.Second, "shutdown drain window; connections still open when it expires are force-closed")
		maxInfl  = fs.Int("max-inflight", 256, "concurrent /v1/ requests before shedding with 429 (negative disables)")
		brkFails = fs.Int("breaker-threshold", 3, "consecutive model-load failures that open the load circuit breaker")
		brkCool  = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open load breaker rejects swaps before probing")
	)
	fs.Var(&models, "model", "model to preload, as name=path/to/model.json (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}

	srv := serve.New(serve.Config{
		MaxBatch:         *maxBatch,
		RequestTimeout:   *timeout,
		ShutdownGrace:    *drain,
		Workers:          *workers,
		MaxInflight:      *maxInfl,
		BreakerThreshold: *brkFails,
		BreakerCooldown:  *brkCool,
	})
	for _, spec := range models {
		name, path, _ := strings.Cut(spec, "=") // checked by modelFlags.Set
		// A model that cannot be preloaded — unreadable, failing its
		// checksum sidecar, or unparseable — is skipped with a degraded
		// mark instead of failing boot: the remaining models still serve,
		// /healthz reports "degraded", and a later PUT can repair the name.
		if e, err := preload(stdout, srv.Registry(), name, path); err != nil {
			fmt.Fprintf(stderr, "dtserve: model %q degraded, serving without it: %v\n", name, err)
			srv.Registry().SetDegraded(name, err.Error())
		} else {
			fmt.Fprintf(stdout, "loaded %s %q from %s (%d trees, %d flat nodes, %d leaves)\n",
				e.Kind(), e.Name, path, e.Trees(), e.Nodes(), e.Leaves())
		}
	}

	if deg := srv.Registry().Degraded(); len(deg) > 0 {
		fmt.Fprintf(stdout, "dtserve: %d model(s) degraded at boot; /healthz reports details\n", len(deg))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "dtserve listening on %s (%d models)\n", *addr, srv.Registry().Len())
	err := srv.ListenAndServe(ctx, *addr)
	srv.Close()
	if errors.Is(err, serve.ErrDrainTimeout) {
		fmt.Fprintf(stdout, "dtserve: drain window of %s expired; forced close of remaining connections\n", *drain)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "dtserve: drained and stopped")
	return nil
}
