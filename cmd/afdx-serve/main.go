// Command afdx-serve is the analysis-as-a-service daemon: it holds
// what-if sessions behind a stdlib HTTP/JSON API, so a design-space
// exploration loop uploads a configuration once and then sends only
// deltas; each delta batch is certified cold on the session's
// configuration (afdx.Certify: one WCNC run shared by both engines).
//
//	afdx-serve -addr 127.0.0.1:8723
//
// A client uploads a configuration (lint pre-flight gated, exactly as
// afdx-bounds gates a cold run), receives a session ID, and POSTs
// ParseDelta-format delta batches:
//
//	curl -s -d @net.json localhost:8723/v1/sessions          # open
//	curl -s -d '{"deltas":["bag v3 16"]}' \
//	     localhost:8723/v1/sessions/s1/whatif                # peek
//	curl -s -d '{"deltas":["drop v7"]}' \
//	     localhost:8723/v1/sessions/s1/apply                 # commit
//	curl -N localhost:8723/v1/sessions/s1/events             # SSE feed
//
// Every served bound is exactly `==` the bound a cold afdx-bounds run
// computes on the same configuration (the served-conformance tier pins
// this). On startup the daemon prints one JSON readiness line to
// stdout ({"listening": "<host:port>", ...}); all logging goes to
// stderr. SIGINT/SIGTERM drain gracefully: in-flight requests finish,
// new ones get 503, sessions close, then the process exits 0.
//
// -selfcheck runs the served-conformance smoke instead of serving: it
// starts the daemon on a loopback port, replays a seeded delta script
// through HTTP, re-derives every answer from cold Certify runs at
// worker counts 1 and N, writes a JSON report to stdout, and exits
// non-zero on any mismatch. check.sh uses this as the serving smoke.
//
// Exit codes: 0 success; 1 serve/selfcheck failure (any served bound
// differing from its cold anchor); 2 usage error or unreadable/invalid
// configuration. A negative limit, timeout, period, -trace-ring or
// -replay-steps, or a -drain-timeout that is not positive, is a usage
// error reported before the daemon listens or the smoke runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"afdx"
	"afdx/internal/obs/cliobs"
	"afdx/internal/obs/oplog"
	"afdx/internal/serve"
)

const (
	exitOK    = 0
	exitServe = 1
	exitUsage = 2
)

var sess *cliobs.Session

func fail(code int, err error) {
	log.Print(err)
	sess.Exit(code)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-serve: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:8723", "listen address (use :0 for an ephemeral port; the bound address is printed on stdout)")
		relaxed      = flag.Bool("relaxed", false, "relax ARINC 664 contract validation")
		noLint       = flag.Bool("no-lint", false, "skip the upload lint pre-flight gate")
		parallelN    = flag.Int("parallel", 0, "default engine worker count for new sessions (0 = all CPUs; bounds are identical either way)")
		maxSessions  = flag.Int("max-sessions", 16, "session pool bound (a full pool evicts its LRU idle session; 0 = unbounded)")
		maxBody      = flag.Int64("max-body", 8<<20, "request body byte limit (0 = unlimited)")
		reqTimeout   = flag.Duration("timeout", 2*time.Minute, "per-request timeout, queueing included (0 = unbounded)")
		idleTimeout  = flag.Duration("idle-timeout", 30*time.Minute, "evict sessions idle this long (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound after SIGINT/SIGTERM")
		selfcheck    = flag.Bool("selfcheck", false, "run the served-conformance smoke against -config and exit (no daemon)")
		config       = flag.String("config", "", "configuration for -selfcheck (required with it)")
		replaySeed   = flag.Int64("replay-seed", 1, "seed of the -selfcheck delta script")
		replaySteps  = flag.Int("replay-steps", 20, "length of the -selfcheck delta script")
		traceRing    = flag.Int("trace-ring", 256, "retained request traces behind /v1/trace (0 disables per-request tracing)")
		slowThresh   = flag.Duration("slow-threshold", 0, "log requests slower than this at warn level (0 = adaptive p99)")
		sampleIvl    = flag.Duration("sample-interval", 10*time.Second, "runtime health sampling period (heap, GC, goroutines, pool occupancy; 0 disables)")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	// A negative limit, period or worker count would silently mean
	// "unbounded", "off" or "all CPUs"; only 0 carries that meaning,
	// where the flag documents it.
	for _, c := range []struct {
		name string
		ok   bool
		want string
	}{
		{"parallel", *parallelN >= 0, "non-negative"},
		{"max-sessions", *maxSessions >= 0, "non-negative"},
		{"max-body", *maxBody >= 0, "non-negative"},
		{"timeout", *reqTimeout >= 0, "non-negative"},
		{"idle-timeout", *idleTimeout >= 0, "non-negative"},
		{"drain-timeout", *drainTimeout > 0, "positive"},
		{"replay-steps", *replaySteps >= 0, "non-negative"},
		{"trace-ring", *traceRing >= 0, "non-negative"},
		{"slow-threshold", *slowThresh >= 0, "non-negative"},
		{"sample-interval", *sampleIvl >= 0, "non-negative"},
	} {
		if !c.ok {
			log.Printf("-%s must be %s, got %v", c.name, c.want, flag.Lookup(c.name).Value)
			os.Exit(exitUsage)
		}
	}
	var err error
	if sess, err = obsFlags.Start(); err != nil {
		fail(exitUsage, err)
	}
	mode := afdx.Strict
	if *relaxed {
		mode = afdx.Relaxed
	}
	opts := serve.DefaultOptions()
	opts.Mode = mode
	opts.NoLint = *noLint
	opts.Parallel = *parallelN
	opts.MaxSessions = *maxSessions
	opts.MaxBodyBytes = *maxBody
	opts.RequestTimeout = *reqTimeout
	opts.IdleTimeout = *idleTimeout
	opts.Registry = sess.EnsureRegistry()
	opts.Logger = sess.Logger
	opts.TraceRing = oplog.NewRing(*traceRing)
	opts.SlowRequestUs = slowThresh.Microseconds()

	if *selfcheck {
		runSelfcheck(opts, *config, *replaySeed, *replaySteps)
		return
	}
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments: %v", flag.Args())
		flag.Usage()
		sess.Exit(exitUsage)
	}

	srv := serve.New(opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(exitUsage, fmt.Errorf("listen: %w", err))
	}
	if *sampleIvl > 0 {
		sampler := oplog.NewRuntimeSampler(opts.Registry)
		sampler.AddGauge("serve.sessions_live", "live what-if sessions in the pool",
			func() int64 { return int64(srv.SessionCount()) })
		defer sampler.Start(*sampleIvl)()
	}
	hs := &http.Server{Handler: srv.Handler(), ErrorLog: log.Default()}
	// The readiness line: scripted callers (and cli_test) poll stdout
	// for it, then hit the printed address. It is the only stdout output
	// of a daemon run.
	fmt.Printf("{\"listening\": %q, \"pid\": %d, \"maxSessions\": %d}\n", ln.Addr().String(), os.Getpid(), *maxSessions)
	log.Printf("serving on %s (mode=%v, lint=%v, pool=%d)", ln.Addr(), mode, !*noLint, *maxSessions)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fail(exitServe, fmt.Errorf("serve: %w", err))
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the session pool first: it terminates the SSE hubs, so the
	// streaming handlers return and Shutdown's handler-wait can finish.
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("stopped")
	sess.Exit(exitOK)
}

// selfcheckReport is the -selfcheck stdout payload.
type selfcheckReport struct {
	Addr       string           `json:"addr"`
	Session    string           `json:"session"`
	Seed       int64            `json:"seed"`
	Steps      int              `json:"steps"`
	Workers    int              `json:"workers"`
	Mismatches int              `json:"mismatches"`
	Details    []serve.Mismatch `json:"details,omitempty"`
}

// runSelfcheck is the served-conformance smoke: a real daemon on a
// loopback port, a seeded script replayed over HTTP, and every answer
// re-derived from cold engine runs at worker counts 1 and N.
func runSelfcheck(opts serve.Options, config string, seed int64, steps int) {
	if config == "" {
		log.Print("-selfcheck requires -config")
		flag.Usage()
		sess.Exit(exitUsage)
	}
	netCfg, err := afdx.LoadJSON(config, opts.Mode)
	if err != nil {
		fail(exitUsage, err)
	}
	opts.IdleTimeout = 0 // the smoke evicts nothing
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(exitServe, fmt.Errorf("listen: %w", err))
	}
	hs := &http.Server{Handler: srv.Handler(), ErrorLog: log.Default()}
	go hs.Serve(ln) //nolint:errcheck // torn down below
	baseURL := "http://" + ln.Addr().String()

	script, err := serve.SeededScript(netCfg, seed, steps)
	if err != nil {
		fail(exitServe, err)
	}
	// The smoke replays with provenance on: the record must be
	// observation-only, so requesting it cannot move a bound off its
	// cold anchor.
	script.Provenance = true
	id, err := script.RunHTTP(http.DefaultClient, baseURL, 0)
	if err != nil {
		fail(exitServe, err)
	}
	ctx := sess.Context()
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	rep := selfcheckReport{
		Addr:    ln.Addr().String(),
		Session: id,
		Seed:    seed,
		Steps:   len(script.Steps),
		Workers: workers,
	}
	for _, par := range []int{1, workers} {
		mm, err := script.VerifyCold(ctx, opts.Mode, par)
		if err != nil {
			fail(exitServe, err)
		}
		rep.Details = append(rep.Details, mm...)
	}
	rep.Mismatches = len(rep.Details)

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	hs.Shutdown(dctx) //nolint:errcheck // smoke teardown

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(exitServe, err)
	}
	fmt.Println(string(out))
	if rep.Mismatches > 0 {
		log.Printf("selfcheck FAILED: %d served bound(s) differ from cold anchors", rep.Mismatches)
		sess.Exit(exitServe)
	}
	log.Printf("selfcheck ok: %d steps bit-identical to cold runs at -parallel 1 and %d", rep.Steps, workers)
	sess.Exit(exitOK)
}
