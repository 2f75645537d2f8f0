package main

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// warmup is the untimed stretch between set-up and the timed window:
// long enough for every session to leave its cold round behind and for
// the daemon's heap to reach its steady size.
func warmup(o options, w *workload) time.Duration {
	if w.shape.warmup > 0 {
		return w.shape.warmup
	}
	return time.Duration(min(1, o.seconds/4) * float64(time.Second))
}

// runE2E measures what a client of dmcd sees: set-up time, then a timed
// closed-loop window, then the correctness checks.
func runE2E(o options, w *workload, out io.Writer) (result, error) {
	sc := newSchedule(w, o.workers)
	var (
		st             *stack
		ds             []doer
		setups, starts []float64
	)
	cleanup := func() {
		closeAll(ds)
		if st != nil {
			st.stop()
		}
		ds, st = nil, nil
	}
	defer cleanup()
	for i := 0; i < w.shape.setups; i++ {
		if i > 0 {
			cleanup()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(o.dmcd, w.shape); err != nil {
			return result{}, err
		}
		starts = append(starts, time.Since(t0).Seconds())
		if ds, err = dialAll(st.primary.addr, o.workers); err != nil {
			return result{}, err
		}
		pw := (&loop{sc: sc, doers: ds}).prime()
		if pw.failed > 0 {
			return result{}, fmt.Errorf("set-up %d: %d of %d priming requests failed; first: %s", i+1, pw.failed, pw.attempted, pw.firstErr)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "set-up: %d sessions primed in %.3fs (median of %d set-ups, exec to last priming answer; daemons listening after %.3fs)\n",
		len(w.sessions), median(setups), len(setups), median(starts))

	chk := newChecker(w, sc)
	l := &loop{sc: sc, doers: ds, pos: make([]int, len(ds)), check: chk.capture}
	warm := l.run(time.Now().Add(warmup(o, w)), false, nil)

	// The timed window is cut into subWindows slices; the daemon's CPU
	// time is read at every slice boundary from this goroutine while the
	// workers run.
	pid := st.primary.pid()
	total := time.Duration(o.seconds * float64(time.Second))
	cpuAt := make([]time.Duration, subWindows+1)
	var cpuErr error
	self0 := selfCPU()
	win := l.run(time.Now().Add(total), true, func(start time.Time) {
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(total * time.Duration(k) / subWindows)))
			c, err := procCPU(pid)
			cpuAt[k], cpuErr = c, errors.Join(cpuErr, err)
		}
	})
	self1 := selfCPU()
	if cpuErr != nil {
		return result{}, cpuErr
	}
	rss, err := procHWM(pid)
	if err != nil {
		return result{}, err
	}

	attempted := warm.attempted + win.attempted
	failed := warm.failed + win.failed
	var bad []string
	for _, e := range []string{warm.firstErr, win.firstErr} {
		if e != "" {
			bad = append(bad, e)
		}
	}
	attempted++ // the connection-count check
	if n := dials(ds); n != o.workers {
		failed++
		bad = append(bad, fmt.Sprintf("%d connections opened for a %d-connection loop", n, o.workers))
	}
	checked, mismatches, findings := chk.verify()
	attempted += int64(checked)
	failed += int64(len(mismatches))
	bad = append(bad, mismatches...)
	if w.shape.observe {
		rep, dbad := verifyDurable(st, len(w.sessions))
		if rep.snapshots == 0 {
			dbad = append(dbad, "no compacting snapshot: the run journaled less than one -snapshot-bytes")
		}
		attempted++
		if len(dbad) > 0 {
			failed++
			bad = append(bad, dbad...)
		}
		fmt.Fprintf(out, "durability: %d compacting snapshots, follower lag %d bytes, %d sync timeouts, %d journal errors, follower applied %d records\n",
			rep.snapshots, rep.lag, rep.syncTimeouts, rep.journalErrors, rep.followerRecords)
	} else {
		fmt.Fprintf(out, "correctness: %d sampled answers replayed through the library, %d mismatches; %d library warm/cold disagreements\n",
			checked, len(mismatches), len(findings))
		for _, f := range findings {
			fmt.Fprintln(out, "FINDING (library, not counted as failed):", f)
		}
	}

	elapsed := win.elapsed.Seconds()
	sw := sliceMedians(win, total, cpuAt)
	clientShare := (self1 - self0).Seconds() / (elapsed * float64(o.workers))
	failedRatio := float64(failed) / float64(max(attempted, 1))
	m := map[string]metric{
		"throughput_rps": {sw.throughput, "1/s"},
		"latency_p50_ms": {ms(sw.p50), "ms"},
		"success_ratio":  {1 - failedRatio, "ratio"},
		"setup_s":        {median(setups), "s"},
		"server_rss_mb":  {rss, "MB"},
	}
	serverCPU := cpuAt[subWindows] - cpuAt[0]
	fmt.Fprintf(out, "window: %.2fs, %d requests (%d ok, %d failed), %d latency samples; client CPU %.1f%% of %d CPUs, server CPU %v\n",
		elapsed, win.attempted, win.ok, win.failed, len(win.lat), 100*clientShare, o.workers, serverCPU)
	fmt.Fprintf(out, "medians over %d slices of %v (slice p50s %.4f ms); p99 over %s\n", subWindows, total/subWindows, sw.p50s, sw.p99Over)
	// latency_p99_ms, server_cpu_ms_per_req and failed_ratio are reported
	// here but kept out of the result line: on a small shared machine the
	// first two drift between runs by more than any bound worth enforcing
	// (the traced run carries both as per-layer numbers), and a metric
	// there must never read 0 (success_ratio carries failed_ratio's
	// complement).
	fmt.Fprintf(out, "  %-28s %14.4f %s\n", "latency_p99_ms", ms(sw.p99), "ms")
	fmt.Fprintf(out, "  %-28s %14.4f %s\n", "server_cpu_ms_per_req", sw.cpuPerReq, "ms")
	fmt.Fprintf(out, "  %-28s %14.4f %s\n", "failed_ratio", failedRatio, "ratio")
	fmt.Fprintf(out, "  %-28s %14.4f %s\n", "loadgen_cpu_share", clientShare, "ratio")
	printMetrics(out, m)
	for _, b := range bad[:min(len(bad), 5)] {
		fmt.Fprintln(out, "FAILED:", b)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// subWindows is how many equal slices the timed window is cut into. Each
// reported rate and percentile is the median over the slices, so a burst
// of interference in one slice does not move the result. On a shared VM
// the CPU-bound fleet-cg swings by a quarter from one second to the next;
// ten slices (of a second each at --seconds 10) let the median ride out
// those swings, where three slices of a third of the window did not. p99
// needs more samples than a slice holds and spans the whole window then.
const subWindows = 10

// minP99Samples is the sample count a slice needs for its own p99 (ten
// samples beyond the percentile); with fewer, p99 spans the whole window.
const minP99Samples = 1000

// sliceStats are the timed window's medians over slices.
type sliceStats struct {
	throughput float64
	p50, p99   time.Duration
	cpuPerReq  float64
	p99Over    string
	// p50s are the slices' own p50s in milliseconds, for the report.
	p50s []float64
}

func sliceMedians(win window, total time.Duration, cpuAt []time.Duration) sliceStats {
	per := total / subWindows
	lat := make([][]time.Duration, subWindows)
	for i, at := range win.at {
		k := min(int(at/per), subWindows-1)
		lat[k] = append(lat[k], win.lat[i])
	}
	var thr, p50, p99, cpu, p50s []float64
	enough := true
	for k, l := range lat {
		thr = append(thr, float64(len(l))/per.Seconds())
		p50 = append(p50, float64(quantile(l, 0.5)))
		p50s = append(p50s, ms(quantile(l, 0.5)))
		p99 = append(p99, float64(quantile(l, 0.99)))
		cpu = append(cpu, ms(cpuAt[k+1]-cpuAt[k])/float64(max(len(l), 1)))
		enough = enough && len(l) >= minP99Samples
	}
	st := sliceStats{
		throughput: median(thr),
		p50:        time.Duration(median(p50)),
		p99:        time.Duration(median(p99)),
		cpuPerReq:  median(cpu),
		p99Over:    "slices",
		p50s:       p50s,
	}
	if !enough {
		st.p99, st.p99Over = quantile(win.lat, 0.99), "the whole window"
	}
	return st
}
