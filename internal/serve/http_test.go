package serve

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmc/internal/scenario"
)

// TestUnencodableAnswerIs500: an answer with an infinite number used to
// go out as a 200 with an empty body, because the status was written
// before the encoder failed. Both writers now encode first.
func TestUnencodableAnswerIs500(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	// cost_per_second = rate × cost overflows to +Inf.
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(
		`{"network":{"rate_mbps":1e300,"lifetime_ms":100,"paths":[{"bandwidth_mbps":1e300,"delay_ms":10,"loss":0.1,"cost":1e10}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkEncodingError(t, "solve answer", resp.StatusCode, body)

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	checkEncodingError(t, "writeJSON", rec.Code, rec.Body.Bytes())
}

func checkEncodingError(t *testing.T, what string, status int, body []byte) {
	t.Helper()
	var e scenario.ErrorResponse
	if status != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil ||
		!strings.Contains(e.Error, "unsupported value: +Inf") {
		t.Errorf("%s: status %d, body %q; want 500 naming the encoding error", what, status, body)
	}
}

// TestAnswersCarryContentLength: a 40×4 answer is larger than
// net/http's 2 KB response buffer, which would send it chunked without
// an explicit Content-Length.
func TestAnswersCarryContentLength(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	wire := testNetwork(rand.New(rand.NewPCG(40, 4)), 40)
	wire.Transmissions = 4
	buf, err := json.Marshal(scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "big"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(body) <= 2048 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
		t.Errorf("%d-byte answer: Content-Length %d, Transfer-Encoding %v", len(body), resp.ContentLength, resp.TransferEncoding)
	}
	var out scenario.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil || out.Result == nil || !strings.HasSuffix(string(body), "}\n") {
		t.Errorf("answer does not decode (%v) or lacks its newline: %q", err, body)
	}
}

// TestDeadlineForCapsHugeBudgets: budgets past what a Duration holds
// (about 9.2e12 ms) used to overflow to a negative Duration and leave
// the request with no deadline at all.
func TestDeadlineForCapsHugeBudgets(t *testing.T) {
	const none = time.Duration(-1)
	longest := time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		maxBudget time.Duration
		budgetMs  float64
		want      time.Duration
	}{
		{0, 0, 30 * time.Second},
		{0, 1000, time.Second},
		{0, 9e12, 30 * time.Second},
		{0, 1e13, 30 * time.Second},
		{0, 1e300, 30 * time.Second},
		{-1, 0, none},
		{-1, 1000, time.Second},
		{-1, 9e12, 9e12 * time.Millisecond},
		{-1, 1e13, longest},
		{-1, 1e300, longest},
	} {
		s := &Server{cfg: Config{MaxBudget: tc.maxBudget}.withDefaults()}
		before := time.Now()
		deadline := s.deadlineFor(tc.budgetMs)
		if tc.want == none {
			if !deadline.IsZero() {
				t.Errorf("MaxBudget %v, budget_ms %g: deadline %v, want none", tc.maxBudget, tc.budgetMs, deadline)
			}
			continue
		}
		if got := deadline.Sub(before); deadline.IsZero() || math.Abs(float64(got-tc.want)) > float64(time.Minute) {
			t.Errorf("MaxBudget %v, budget_ms %g: deadline in %v, want %v", tc.maxBudget, tc.budgetMs, got, tc.want)
		}
	}
}

// TestServedSolveAllocs pins the allocations of one warm 3×2 session
// solve served through Handler(), from the body's decode to the
// answer's write. The request and its writer are reused, so only the
// server's own allocations count.
func TestServedSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race pools drop at random")
	}
	const budget = 24
	srv, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := mustJSON(t, scenario.SolveRequest{
		Solve:     scenario.Solve{Network: testNetwork(rand.New(rand.NewPCG(32, 1)), 3)},
		SessionID: "allocs",
	})
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", io.NopCloser(rd))
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	serve() // primes the session's solver
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs > budget {
		t.Errorf("a warm served solve makes %.1f allocations, want at most %d", allocs, budget)
	}
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps the status
// and drops the body.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
