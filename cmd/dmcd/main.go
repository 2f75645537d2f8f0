// Command dmcd is the online solver daemon: a long-lived HTTP/JSON
// service answering deadline-aware multipath optimization requests over
// sharded warm-solver pools, so a fleet of sessions under drifting
// estimates re-solves incrementally instead of from scratch.
//
// Usage:
//
//	dmcd -addr :7117
//	dmcd -addr :7117 -shards 4 -queue 2048
//	dmcd -addr :7117 -state-dir /var/lib/dmcd -repl-ack sync
//	dmcd -addr :7118 -state-dir /var/lib/dmcd-standby -follow http://primary:7117
//
// API (JSON bodies; schema in internal/scenario):
//
//	POST   /v1/solve        {"network": {...}, "objective": "quality|mincost|random",
//	                         "min_quality": 0.95, "timeout": {...},
//	                         "session_id": "s1", "estimator": true}
//	POST   /v1/observe      {"session_id": "s1", "paths": [{"path": 0, "sent": 100,
//	                         "lost": 3, "rtt_ms": [42.1]}]}
//	DELETE /v1/session/{id}
//	GET    /v1/replicate    follower journal stream (persistence only)
//	POST   /v1/promote      follower-only: promote this standby to primary
//	GET    /metrics
//	GET    /healthz
//
// A session_id pins requests to a session-keyed warm solver (LP basis
// and column-pool affinity across re-solves); "estimator": true attaches
// a §VIII-A estimator feed that /v1/observe measurements drive, warm
// re-solving only when the estimates drift. Sessions hash onto -shards
// shards; each shard runs GOMAXPROCS workers, and a free worker takes
// the next admitted request at once, so a quick solve never waits for
// another session's slow one. A full shard queue (-queue) answers 429
// with a Retry-After hint. SIGINT/SIGTERM shut down gracefully:
// admitted solves drain before the process exits.
//
// -state-dir makes sessions durable: acknowledged session state (the
// scenario/objective binding, estimator counters, last good strategy)
// is journaled with fsync before the response, compacted into periodic
// snapshots, and restored at the next boot — even after kill -9, which
// at worst leaves a torn journal suffix that boot truncates. See the
// README's "Durability & restart".
//
// Replication (see the README's "Replication & failover"): a primary
// with -state-dir streams its journal to hot standbys started with
// -follow <primary-url>. -repl-ack sync withholds 2xx until a follower
// has durably applied the record ("acknowledged means replicated");
// the default async mode acknowledges on local fsync. A standby is
// promoted by POST /v1/promote (in place, same process) or by
// restarting it with -promote; either way the new primary's epoch
// fences the old one, whose stale incarnation is refused on rejoin and
// resyncs as a follower via a snapshot reset transfer.
//
// Failure containment (see the README's "Failure modes & degradation"):
// "budget_ms" per request bounds queue wait (504 when it expires,
// capped by -max-budget), per-shard circuit breakers fail fast with 503
// while the solver is faulting (-breaker-threshold, -breaker-cooldown,
// -serve-degraded), and solver panics answer 500 while the poisoned
// session solver is quarantined. DMC_FAULT_POINTS/DMC_FAULT_SEED
// activate the deterministic fault-injection harness (chaos drills
// only — never in production).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dmc/internal/fault"
	"dmc/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmcd:", err)
		os.Exit(1)
	}
}

// handlerSwitch is an http.Handler whose target swaps atomically — how
// an in-place promotion replaces the follower's read-only API with the
// full primary API without rebinding the listener.
type handlerSwitch struct{ h atomic.Value }

func (hs *handlerSwitch) set(h http.Handler) { hs.h.Store(h) }

func (hs *handlerSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hs.h.Load().(http.Handler).ServeHTTP(w, r)
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dmcd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":7117", "listen address")
		shards      = fs.Int("shards", 0, "warm-pool shards (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "admitted-task queue bound per shard (0 = 1024)")
		estTol      = fs.Float64("est-tol", 0, "estimator re-solve drift tolerance (0 = adaptor default)")
		maxBudget   = fs.Duration("max-budget", 0, "deadline-budget cap and default (0 = 30s, negative = no default)")
		brkThresh   = fs.Int("breaker-threshold", 0, "consecutive solver faults tripping a shard breaker (0 = 8, negative = off)")
		brkCooldown = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 2s)")
		degraded    = fs.Bool("serve-degraded", false, "serve a session's last good strategy while its breaker is open")
		stateDir    = fs.String("state-dir", "", "session durability dir: snapshot+journal written here, sessions restored at boot (empty = no persistence)")
		snapBytes   = fs.Int64("snapshot-bytes", 0, "journal size triggering a compacting snapshot (0 = 4MB, negative = only final snapshot)")
		noSync      = fs.Bool("journal-nosync", false, "skip per-record journal fsync (faster appends, crash may lose the tail)")
		follow      = fs.String("follow", "", "run as a hot-standby follower replicating from this primary URL (requires -state-dir)")
		promote     = fs.Bool("promote", false, "boot as the new primary from a follower's state dir, bumping the fencing epoch")
		replAck     = fs.String("repl-ack", "", `replication acknowledgement mode: "async" (default: acks on local fsync) or "sync" (withholds 2xx until a follower acks)`)
		replAckTo   = fs.Duration("repl-ack-timeout", 0, "sync mode: how long a write waits for a follower ack before failing (0 = 5s)")
		replLagWarn = fs.Int64("repl-lag-warn", 0, "follower lag in journal bytes beyond which /healthz degrades (0 = snapshot-bytes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Chaos drills: an operator (or the chaos-smoke CI job) can arm the
	// deterministic fault injectors from the environment.
	if plan, err := fault.FromEnv(); err != nil {
		return err
	} else if plan != nil {
		fault.Activate(plan)
		fmt.Fprintf(stdout, "dmcd: fault injection ARMED (seed %d) at points %v\n", plan.Seed, fault.Points())
	}

	cfg := serve.Config{
		Shards:           *shards,
		MaxQueue:         *queue,
		EstimatorRelTol:  *estTol,
		MaxBudget:        *maxBudget,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		ServeDegraded:    *degraded,
		StateDir:         *stateDir,
		SnapshotBytes:    *snapBytes,
		JournalNoSync:    *noSync,
		ReplAck:          *replAck,
		ReplAckTimeout:   *replAckTo,
		ReplLagWarn:      *replLagWarn,
		Promote:          *promote,
	}

	if *follow != "" {
		if *stateDir == "" {
			return errors.New("-follow requires -state-dir (the follower journals the replicated stream)")
		}
		if *promote {
			return errors.New("-follow and -promote are mutually exclusive: -promote boots a former follower's state dir as the new primary")
		}
		return runFollower(ctx, cfg, *follow, *addr, stdout)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *stateDir != "" {
		fmt.Fprintf(stdout, "dmcd: durability on (%s): restored %d sessions\n", *stateDir, srv.Metrics().Durability.RestoredSessions)
		fmt.Fprintf(stdout, "dmcd: replication %s (epoch %d)\n", srv.Metrics().Replication.Mode, srv.Epoch())
	}
	if *promote {
		fmt.Fprintf(stdout, "dmcd: PROMOTED to primary at epoch %d; the old primary is fenced\n", srv.Epoch())
	}
	return serveHTTP(ctx, *addr, srv.Handler(), stdout, srv.QuiesceReplication, nil)
}

// runFollower runs the hot-standby loop: replicate from the primary,
// serve the degraded read-only API, and promote in place when asked.
func runFollower(ctx context.Context, cfg serve.Config, primary, addr string, stdout io.Writer) error {
	sw := &handlerSwitch{}
	var (
		pmu      sync.Mutex
		promoted *serve.Server
		fol      *serve.Follower
	)
	id, _ := os.Hostname()
	f, err := serve.NewFollower(serve.FollowerConfig{
		Primary:  primary,
		StateDir: cfg.StateDir,
		ID:       id,
		OnPromote: func() error {
			pmu.Lock()
			defer pmu.Unlock()
			if promoted != nil {
				return nil // already promoted; the retry is idempotent
			}
			srv, err := fol.Promote(cfg)
			if err != nil {
				return err
			}
			promoted = srv
			sw.set(srv.Handler())
			fmt.Fprintf(stdout, "dmcd: PROMOTED to primary at epoch %d; the old primary is fenced\n", srv.Epoch())
			return nil
		},
	})
	if err != nil {
		return err
	}
	fol = f
	sw.set(fol.Handler())
	fmt.Fprintf(stdout, "dmcd: following %s (replicated %d sessions so far)\n", primary, fol.Sessions())

	return serveHTTP(ctx, addr, sw, stdout,
		func() {
			// If promotion happened, this process is now a primary with
			// followers possibly parked in long polls; wake them so the
			// HTTP drain is not held hostage.
			pmu.Lock()
			defer pmu.Unlock()
			if promoted != nil {
				promoted.QuiesceReplication()
			}
		},
		func() {
			// Shut down whichever role the process holds by now. Promotion
			// holds pmu across the swap, so this cannot observe a half-state.
			pmu.Lock()
			defer pmu.Unlock()
			if promoted != nil {
				promoted.Close()
			} else {
				fol.Close()
			}
		})
}

// serveHTTP binds addr and serves handler until ctx is canceled, then
// shuts down gracefully: run quiesce (waking replication long-polls
// that would stall the drain), stop accepting, drain in-flight HTTP,
// then run closeFn (which drains the solver/replication side).
//
// The timeouts harden the listener against slow clients (slowloris
// headers, stalled bodies, dead keep-alives). The replication long poll
// legitimately outlives ReadTimeout/WriteTimeout; its handler lifts
// both per-request via http.ResponseController rather than this server
// going unbounded for everyone.
func serveHTTP(ctx context.Context, addr string, handler http.Handler, stdout io.Writer, quiesce, closeFn func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dmcd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Stop accepting, let in-flight HTTP requests finish, then drain the
	// shard queues.
	fmt.Fprintln(stdout, "dmcd: shutting down")
	if quiesce != nil {
		quiesce()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if closeFn != nil {
		closeFn()
	}
	return nil
}
