package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// request is one pre-marshalled request of a workload's schedule.
type request struct {
	id   int
	sess int
	// step is the drift round (solve) or the observation index plus one
	// (observe; step 0 is the estimator bind).
	step int
	path string
	body []byte
	// wire is the complete HTTP/1.1 request, headers included.
	wire []byte
}

// schedule is a workload's request sequence, split across the closed
// loop's workers. Worker w owns the sessions s ≡ w (mod workers), so one
// session's requests never race each other and each of them is exactly
// one drift step (or one observation) after the session's previous one.
type schedule struct {
	reqs []request
	// prime[w] lists worker w's priming requests (one cold solve or
	// estimator bind per session); cycle[w] is one full cycle of its
	// steady-state requests, replayed in order.
	prime [][]int
	cycle [][]int
	// seq is one cycle in global order: step-major, then session.
	seq []int
	// ids[s][step] is session s's request ID for a step.
	ids [][]int
}

func newSchedule(w *workload, nworkers int) *schedule {
	sc := &schedule{prime: make([][]int, nworkers), cycle: make([][]int, nworkers)}
	add := func(r request) int {
		r.id = len(sc.reqs)
		r.wire = httpRequest(r.path, r.body)
		sc.reqs = append(sc.reqs, r)
		return len(sc.reqs) - 1
	}
	sc.ids = make([][]int, len(w.sessions))
	ids := sc.ids
	for s, se := range w.sessions {
		for r, b := range se.bodies {
			ids[s] = append(ids[s], add(request{sess: s, step: r, path: solveEndpoint, body: b}))
		}
		for k, b := range se.obs {
			ids[s] = append(ids[s], add(request{sess: s, step: k + 1, path: observeEndpoint, body: b}))
		}
	}
	var steps []int // the cycle's step per position
	if w.shape.observe {
		for k := 1; k <= w.shape.observations; k++ {
			steps = append(steps, k)
		}
	} else {
		period := max(1, 2*(w.shape.rounds-1))
		for k := 1; k <= period; k++ {
			steps = append(steps, pingpong(k, w.shape.rounds))
		}
	}
	for s := range w.sessions {
		sc.prime[s%nworkers] = append(sc.prime[s%nworkers], ids[s][0])
	}
	for _, step := range steps {
		for s := range w.sessions {
			sc.cycle[s%nworkers] = append(sc.cycle[s%nworkers], ids[s][step])
			sc.seq = append(sc.seq, ids[s][step])
		}
	}
	return sc
}

// httpRequest renders a keep-alive HTTP/1.1 POST.
func httpRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: dmcd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// doer executes one request and returns the status and response body.
// The body is only valid until the next call.
type doer interface {
	do(r *request) (status int, body []byte, err error)
	close()
}

// conn is a raw keep-alive HTTP/1.1 client connection: requests are
// written pre-rendered and responses parsed in place, so the load
// generator spends no goroutines or allocations on a transport.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
	// dials counts connections opened, redials after errors included.
	dials int
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.dials++
	c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) do(r *request) (int, []byte, error) {
	status, body, err := c.roundTrip(r.wire)
	if err != nil {
		// A broken connection is replaced so the loop keeps its width;
		// the failed request still counts as failed.
		if rerr := c.redial(); rerr != nil {
			return 0, nil, fmt.Errorf("%w (redial: %v)", err, rerr)
		}
	}
	return status, body, err
}

func (c *conn) roundTrip(wire []byte) (int, []byte, error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		err = fmt.Errorf("server closed the keep-alive connection after status %d", resp.StatusCode)
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// dialAll opens n connections to addr.
func dialAll(addr string, n int) ([]doer, error) {
	out := make([]doer, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(ds []doer) {
	for _, d := range ds {
		d.close()
	}
}

func dials(ds []doer) int {
	n := 0
	for _, d := range ds {
		if c, ok := d.(*conn); ok {
			n += c.dials
		}
	}
	return n
}

// inproc serves requests through an http.Handler in the same process,
// into a reusable recorder: the serve rung without HTTP.
type inproc struct {
	h   http.Handler
	rec recorder
}

func (d *inproc) do(r *request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	d.rec.reset()
	d.h.ServeHTTP(&d.rec, req)
	return d.rec.status, d.rec.buf.Bytes(), nil
}

func (d *inproc) close() {}

// recorder is a minimal reusable http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) reset() {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	clear(r.hdr)
	r.status = 0
	r.buf.Reset()
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// loop drives a closed loop: each worker sends its next request only
// after the previous one completed. Positions persist across runs, so a
// warm-up followed by a timed window continues one unbroken sequence.
type loop struct {
	sc    *schedule
	doers []doer
	pos   []int
	// check, when set, inspects every 2xx response body (from the
	// worker's own goroutine) and reports whether it is correct.
	check func(r *request, body []byte) bool
	// tr, when set, records one span per request.
	tr       *tracer
	spanName string
}

// window is what one run of the loop measured.
type window struct {
	// lat holds the latency of every successful request when recording;
	// at[i] is when request i completed, relative to the window's start.
	lat       []time.Duration
	at        []time.Duration
	attempted int64
	ok        int64
	failed    int64
	elapsed   time.Duration
	// firstErr is the first failure's description, for the log.
	firstErr string
}

// run replays the cycle until the deadline passes. record keeps the
// latency samples. monitor, when set, runs on the calling goroutine
// while the workers run.
func (l *loop) run(deadline time.Time, record bool, monitor func(start time.Time)) window {
	return l.replay(l.sc.cycle, l.pos, deadline, false, record, monitor)
}

// once replays at most one full cycle per worker, stopping early at the
// deadline (zero means none).
func (l *loop) once(deadline time.Time) window {
	return l.replay(l.sc.cycle, l.pos, deadline, true, false, nil)
}

// prime sends every worker's priming requests once (one cold solve or
// estimator bind per session).
func (l *loop) prime() window {
	return l.replay(l.sc.prime, make([]int, len(l.doers)), time.Time{}, true, false, nil)
}

// replay is the worker loop behind run, once and prime: each worker
// walks its list from its position, until the deadline or — with
// single — after one pass over its list.
func (l *loop) replay(lists [][]int, pos []int, deadline time.Time, single, record bool, monitor func(start time.Time)) window {
	n := len(l.doers)
	parts := make([]window, n)
	start := time.Now()
	err := forEachWorker(n, func(w int) {
		list := lists[w]
		if len(list) == 0 {
			return
		}
		p := &parts[w]
		if record {
			p.lat = make([]time.Duration, 0, 1<<16)
			p.at = make([]time.Duration, 0, 1<<16)
		}
		var ln *lane
		if l.tr != nil {
			ln = l.tr.lane(w)
		}
		for sent := 0; !single || sent < len(list); sent++ {
			if !deadline.IsZero() && sent%4 == 0 && time.Now().After(deadline) {
				break
			}
			id := list[pos[w]%len(list)]
			pos[w]++
			r := &l.sc.reqs[id]
			t0 := time.Now()
			status, body, err := l.doers[w].do(r)
			t1 := time.Now()
			if ln != nil {
				ln.add(l.spanName, t0, t1, noParent, int64(id))
			}
			p.attempted++
			switch {
			case err != nil:
				p.fail(fmt.Sprintf("%s session %d step %d: %v", r.path, r.sess, r.step, err))
			case status/100 != 2:
				p.fail(fmt.Sprintf("%s session %d step %d: status %d: %s", r.path, r.sess, r.step, status, truncate(body)))
			case l.check != nil && !l.check(r, body):
				p.fail(fmt.Sprintf("%s session %d step %d: wrong answer", r.path, r.sess, r.step))
			default:
				p.ok++
				if record {
					p.lat = append(p.lat, t1.Sub(t0))
					p.at = append(p.at, t1.Sub(start))
				}
			}
		}
	}, func() {
		if monitor != nil {
			monitor(start)
		}
	})
	out := window{elapsed: time.Since(start)}
	if err != nil {
		out.fail(err.Error())
	}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.at = append(out.at, p.at...)
		out.attempted += p.attempted
		out.ok += p.ok
		out.failed += p.failed
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
	}
	return out
}

func (p *window) fail(msg string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = msg
	}
}

func truncate(b []byte) string {
	const n = 200
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

// forEachWorker runs fn(0..n-1) on n goroutines, runs monitor on the
// calling goroutine, and waits for all of them; a panic in a worker is
// returned as an error instead of killing the benchmark without a
// result line.
func forEachWorker(n int, fn func(w int), monitor func()) error {
	errc := make(chan error, n)
	for w := 0; w < n; w++ {
		go func() {
			defer func() {
				if p := recover(); p != nil {
					errc <- fmt.Errorf("worker %d panicked: %v", w, p)
					return
				}
				errc <- nil
			}()
			fn(w)
		}()
	}
	monitor()
	var first error
	for w := 0; w < n; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}
