package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmc/internal/serve"
)

// daemon is one running cmd/dmcd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// drained is closed once the process's stdout reaches EOF.
	drained chan struct{}
}

// startDaemon execs dmcd with args and waits until it reports its
// listening address (dmcd binds 127.0.0.1:0, so the port is ephemeral).
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A daemon must not outlive the benchmark, even when the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dmcd: listening on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("dmcd %v exited before listening", args)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("dmcd %v did not start listening within 60s", args)
	}
}

func (d *daemon) url() string { return "http://" + d.addr }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully (SIGTERM drains admitted work),
// killing it if it has not exited within 20s, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.drained
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// stack is the daemon set one workload runs against: a plain dmcd, or a
// durable sync-replicating primary plus one loopback follower.
type stack struct {
	primary  *daemon
	follower *daemon
	dirs     []string
}

// startStack starts the workload's daemons, each listening on an
// ephemeral loopback port.
//
// The durable stack does not wait for the follower's first poll: a sync
// write is acknowledged as soon as some follower's poll covers it, even
// one that connects after the write, so the first priming answers are
// themselves the signal that replication is up.
func startStack(bin string, sh shape) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.stop()
		}
	}()
	if !sh.observe {
		st.primary, err = startDaemon(bin, "-addr", "127.0.0.1:0")
		return st, err
	}
	for _, role := range []string{"primary", "follower"} {
		dir, err := os.MkdirTemp("", "dmcbench-"+role+"-")
		if err != nil {
			return st, err
		}
		st.dirs = append(st.dirs, dir)
	}
	args := []string{"-addr", "127.0.0.1:0", "-state-dir", st.dirs[0], "-repl-ack", serve.ReplAckSync}
	if sh.snapshotBytes > 0 {
		args = append(args, "-snapshot-bytes", strconv.Itoa(sh.snapshotBytes))
	}
	if st.primary, err = startDaemon(bin, args...); err != nil {
		return st, err
	}
	st.follower, err = startDaemon(bin, "-addr", "127.0.0.1:0", "-state-dir", st.dirs[1], "-follow", st.primary.url())
	return st, err
}

// stop stops every daemon (primary first, so its quiesce wakes the
// follower's long poll) and removes the state dirs.
func (st *stack) stop() {
	if st.primary != nil {
		st.primary.stop()
	}
	if st.follower != nil {
		st.follower.stop()
	}
	for _, d := range st.dirs {
		_ = os.RemoveAll(d)
	}
}

// controlClient fetches metrics outside the timed window; it keeps no
// idle connections, so it leaves no goroutines behind.
var controlClient = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func getJSON(url string, dst any) error {
	resp, err := controlClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func primaryMetrics(d *daemon) (serve.Metrics, error) {
	var m serve.Metrics
	err := getJSON(d.url()+"/metrics", &m)
	return m, err
}

func followerMetrics(d *daemon) (serve.FollowerMetrics, error) {
	var m serve.FollowerMetrics
	err := getJSON(d.url()+"/metrics", &m)
	return m, err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every mainstream Linux architecture.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitFor polls cond every 10ms until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
