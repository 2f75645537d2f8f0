package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmc/internal/core"
	"dmc/internal/scenario"
)

// maxBodyBytes bounds request bodies; a network description is a few KB
// even at fleet scale.
const maxBodyBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/solve        solve (one-shot, session-keyed, or estimator)
//	POST   /v1/observe      feed estimator measurements, re-solve on drift
//	DELETE /v1/session/{id} drop a session
//	GET    /v1/replicate    follower journal stream (persistence only)
//	GET    /metrics         per-shard metrics snapshot
//	GET    /healthz         liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleDrop)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.persist != nil {
		mux.HandleFunc("GET /v1/replicate", s.handleReplicate)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	writeBody(w, status, append(b, '\n'), err)
}

// answerBufs holds the buffers solve answers are encoded into.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAnswer writes a solve, observe or degraded answer with 200.
func writeAnswer(w http.ResponseWriter, resp scenario.SolveResponse) {
	bp := answerBufs.Get().(*[]byte)
	b, err := scenario.AppendSolveResponse((*bp)[:0], &resp)
	b = append(b, '\n')
	writeBody(w, http.StatusOK, b, err)
	if cap(b) <= 64<<10 {
		*bp = b
		answerBufs.Put(bp)
	}
}

// writeBody writes a JSON body that ends in a newline, as json.Encoder
// ends one. The body is encoded before the status is written, so a
// value that cannot be encoded (a NaN or infinite number) answers 500
// naming the error instead of an empty 200.
func writeBody(w http.ResponseWriter, status int, b []byte, err error) {
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "serve: encoding the answer: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	// Without a Content-Length, a body past net/http's 2 KB response
	// buffer goes out chunked.
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client is gone
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, scenario.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode parses a request body into dst (unknown fields rejected),
// writing a 400 itself on failure.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := scenario.Load(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// submit admits the task (or replies 429), waits for an execution slot
// (or the client's departure) and executes the task on the request's
// own goroutine. ok false means the response is already written, or
// nobody is left to read it.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, sh *shard, t *task) (res taskResult, ok bool) {
	t.enq = time.Now()
	switch err := s.admit(sh); {
	case err == nil:
	case errors.Is(err, errClosed):
		writeErr(w, http.StatusServiceUnavailable, "serve: shutting down")
		return taskResult{}, false
	case errors.Is(err, errBreakerOpen):
		// Hand the breaker verdict back as a result so the handler can
		// choose between 503 + Retry-After and a degraded last-good
		// answer.
		return taskResult{err: errBreakerOpen}, true
	default:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(sh)))
		writeErr(w, http.StatusTooManyRequests, "serve: shard %d queue full", sh.idx)
		return taskResult{}, false
	}
	defer s.wg.Done()
	defer func() { <-sh.admitted }()
	select {
	case sh.running <- struct{}{}:
	default:
		// Every slot is taken: wait in line (a channel's blocked senders
		// go in arrival order), unless the client leaves first. Only this
		// path asks for the context's Done channel, which is made on
		// first use.
		select {
		case sh.running <- struct{}{}:
		case <-r.Context().Done():
			// The client is gone: give its place up without solver work.
			sh.met.abandonedTasks.Add(1)
			sh.brk.onSkip()
			return taskResult{}, false
		}
	}
	defer func() { <-sh.running }()
	return s.exec(sh, t), true
}

// solveStatus maps a solve error to its HTTP status. Only verdicts the
// client caused (an unattainable request on the network it supplied)
// are 4xx; anything unrecognized is a server fault and must say so, or
// client retry logic backs off a request that could never succeed — and
// retries one that might.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrInfeasible),
		errors.Is(err, core.ErrRandomNeedsTwoTransmissions):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errDropped):
		return http.StatusGone
	case errors.Is(err, errClosed), errors.Is(err, errBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, errExpired):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// isServerFault reports whether err should count against the shard's
// circuit breaker: only genuine solver-side 500s do. Client-caused
// verdicts (4xx), shed/abandoned tasks, and shutdown are not evidence
// the solver is unhealthy.
func isServerFault(err error) bool {
	if err == nil {
		return false
	}
	return solveStatus(err) == http.StatusInternalServerError
}

// writeSolveErr writes a solve error with its mapped status, attaching
// Retry-After to the verdicts that carry one (breaker open, expired
// budget).
func (s *Server) writeSolveErr(w http.ResponseWriter, sh *shard, err error) {
	status := solveStatus(err)
	switch {
	case errors.Is(err, errBreakerOpen):
		secs := int(s.cfg.BreakerCooldown / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, errExpired):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(sh)))
	}
	writeErr(w, status, "%v", err)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "serve: shutting down")
		return
	}
	var req scenario.SolveRequest
	if !decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	obj, _ := req.ObjectiveKind()
	if req.Estimator {
		if req.SessionID == "" {
			writeErr(w, http.StatusBadRequest, "serve: estimator requires a session_id")
			return
		}
		if obj != scenario.ObjectiveQuality {
			writeErr(w, http.StatusBadRequest, "serve: estimator supports only the quality objective, not %q", obj)
			return
		}
	}
	net, err := req.Network.ToNetwork()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	t := &task{
		kind:       taskSolve,
		estimator:  req.Estimator,
		net:        net,
		objective:  obj,
		minQuality: req.MinQuality,
		deadline:   s.deadlineFor(req.BudgetMs),
		wire:       &req.Solve,
	}
	if req.Timeout != nil {
		t.toOpts = req.Timeout.Options()
	}
	var sh *shard
	if req.SessionID != "" {
		t.sess = s.sessionFor(req.SessionID)
		sh = t.sess.sh
	} else {
		sh = s.shards[s.oneShotRR.Add(1)%uint64(len(s.shards))]
	}
	res, ok := s.submit(w, r, sh, t)
	if !ok {
		return
	}
	if errors.Is(res.err, errBreakerOpen) && s.cfg.ServeDegraded && t.sess != nil {
		// The breaker protects capacity, not correctness: a stale
		// strategy for a drifting network usually beats no strategy, so
		// opt-in degraded mode answers from the session's last good
		// solve while the shard recovers.
		if lg := t.sess.lastGoodResult(); lg != nil {
			sh.met.degraded.Add(1)
			writeAnswer(w, scenario.SolveResponse{
				SessionID: req.SessionID,
				Resolved:  false,
				Result:    lg,
				Degraded:  true,
			})
			return
		}
	}
	if res.err != nil {
		s.writeSolveErr(w, sh, res.err)
		return
	}
	writeAnswer(w, scenario.SolveResponse{
		SessionID: req.SessionID,
		Resolved:  res.resolved,
		Result:    &res.res,
	})
}

// maxRTTMs bounds the RTT samples /v1/observe accepts: at or above it a
// request is rejected. A sample below 1e12 ms (about 32 years) converts
// to a time.Duration of under 1e18 ns without overflow, and the
// estimator's SRTT and RTTVAR then stay below 1e9 s, so its RTO, SRTT +
// 4·RTTVAR, stays below 5e18 ns, inside time.Duration's range.
const maxRTTMs = 1e12

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "serve: shutting down")
		return
	}
	var req scenario.ObserveRequest
	if !decode(w, r, &req) {
		return
	}
	if req.SessionID == "" {
		writeErr(w, http.StatusBadRequest, "serve: observe requires a session_id")
		return
	}
	se := s.lookupSession(req.SessionID)
	if se == nil {
		writeErr(w, http.StatusNotFound, "serve: unknown session %q", req.SessionID)
		return
	}

	// Feed the observations before submitting the poll, so the poll's
	// drift check sees them no matter how requests interleave.
	se.mu.Lock()
	ad := se.adaptor
	if ad == nil || se.dropped {
		se.mu.Unlock()
		writeErr(w, http.StatusConflict, "serve: session %q has no estimator feed (solve with \"estimator\": true first)", req.SessionID)
		return
	}
	// Every entry is checked before any folds: a rejected request
	// changes no estimate, so a client's retry does not count twice.
	nPaths := len(ad.EstimatedNetwork().Paths)
	for _, p := range req.Paths {
		if p.Path < 0 || p.Path >= nPaths {
			se.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "serve: path index %d outside the session's %d paths", p.Path, nPaths)
			return
		}
		if p.Sent < 0 || p.Lost < 0 || p.Lost > p.Sent {
			se.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "serve: path %d needs 0 <= lost <= sent, got sent=%d lost=%d", p.Path, p.Sent, p.Lost)
			return
		}
		for _, ms := range p.RTTMs {
			if !(ms >= 0 && ms < maxRTTMs) {
				se.mu.Unlock()
				writeErr(w, http.StatusBadRequest, "serve: path %d needs 0 <= rtt_ms < %g, got %g", p.Path, maxRTTMs, ms)
				return
			}
		}
	}
	for _, p := range req.Paths {
		// Counts fold in O(1): client-supplied magnitudes must never
		// buy per-unit work while se.mu is held.
		ad.ObserveSends(p.Path, p.Sent)
		ad.ObserveLosses(p.Path, p.Lost)
		for _, ms := range p.RTTMs {
			ad.ObserveRTT(p.Path, time.Duration(ms*float64(time.Millisecond)))
		}
	}
	se.mu.Unlock()

	res, ok := s.submit(w, r, se.sh, &task{kind: taskPoll, sess: se, deadline: s.deadlineFor(0)})
	if !ok {
		return
	}
	if res.err != nil {
		s.writeSolveErr(w, se.sh, res.err)
		return
	}
	writeAnswer(w, scenario.SolveResponse{
		SessionID: req.SessionID,
		Resolved:  res.resolved,
		Result:    &res.res,
	})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	// Durability before acknowledgement, same as solves: a drop whose
	// journal append failed answers 500 (the breaker fault is counted in
	// DropSession), and the client retries until the 204 means it.
	if err := s.DropSession(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "serve: shutting down")
		return
	}
	// A single open breaker degrades one shard; every breaker open means
	// no request can be served at all — that is a liveness failure.
	breakers := make([]string, len(s.shards))
	allOpen := len(s.shards) > 0
	for i, sh := range s.shards {
		st := sh.brk.snapshot()
		breakers[i] = st.String()
		if st != breakerOpen {
			allOpen = false
		}
	}
	body := map[string]any{"status": "ok", "breakers": breakers}
	if allOpen {
		body["status"] = "unhealthy: every shard breaker open"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	// Durability trouble degrades (200, but the status says so — load
	// balancers keep routing, operators get paged): failed journal
	// appends mean writes are being refused, and replication lag past
	// the threshold means a failover now would lose that much
	// acknowledged state in async mode.
	var trouble []string
	if p := s.persist; p != nil {
		if n := p.journalErrors.Load(); n > 0 {
			trouble = append(trouble, fmt.Sprintf("%d journal errors", n))
		}
		trouble = append(trouble, s.repl.replHealth()...)
	}
	if len(trouble) > 0 {
		body["status"] = "degraded: " + strings.Join(trouble, "; ")
	}
	writeJSON(w, http.StatusOK, body)
}
