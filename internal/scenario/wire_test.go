package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmc/internal/core"
	"dmc/internal/experiments"
)

// fastParse runs only the hand-written parser on a fresh request.
func fastParse(input []byte) (SolveRequest, bool) {
	var req SolveRequest
	p := wireParser{b: input}
	ok := p.solveRequest(&req)
	return req, ok
}

// jsonLoad is Load by encoding/json alone, the reference for the fast path.
func jsonLoad(input string) (SolveRequest, error) {
	var req SolveRequest
	err := decodeJSON(strings.NewReader(input), &req)
	return req, err
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkSolveWire is FuzzSolveWire's property: the parser accepts only
// what encoding/json accepts, with an equal value; Load returns what
// encoding/json returns, value and error text; and AppendSolveResponse
// writes json.Marshal's bytes, or fails exactly when it does.
func checkSolveWire(t *testing.T, input string) {
	t.Helper()
	want, wantErr := jsonLoad(input)
	if fast, ok := fastParse([]byte(input)); ok {
		if wantErr != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v)\ninput: %s", wantErr, input)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast path decoded\n%#v\nencoding/json decoded\n%#v\ninput: %s", fast, want, input)
		}
	}
	var got SolveRequest
	gotErr := Load(strings.NewReader(input), &got)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Load error %q, encoding/json error %q\ninput: %s", errText(gotErr), errText(wantErr), input)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Load decoded\n%#v\nencoding/json decoded\n%#v\ninput: %s", got, want, input)
	}
	checkAppendResponse(t, answerFrom(&want))
}

// answerFrom builds an answer out of a decoded request's values, so the
// fuzzer reaches every float, string and slice shape of the response,
// and products that overflow to ±Inf or NaN.
func answerFrom(req *SolveRequest) *SolveResponse {
	n := &req.Network
	res := &SolveResult{
		Quality:       n.RateMbps * n.LifetimeMs,
		CostPerSecond: req.MinQuality * req.BudgetMs,
		Dispatch:      req.Objective,
		Warm:          req.Estimator,
	}
	if n.CostBound != nil {
		res.DropRateMbps = *n.CostBound * res.Quality
	}
	for i, p := range n.Paths {
		res.Shares = append(res.Shares, Share{Combo: []int{i, n.Transmissions}, Fraction: p.Loss, DeliveryProb: p.Cost})
		res.PathRatesMbps = append(res.PathRatesMbps, p.BandwidthMbps*p.DelayMs)
		if g := p.DelayGamma; g != nil {
			res.TimeoutsMs = append(res.TimeoutsMs, []float64{g.LocMs, g.Shape, g.ScaleMs})
		}
		res.Dispatch += p.Name
	}
	resp := &SolveResponse{SessionID: req.SessionID, Resolved: len(n.Paths)%2 == 1, Degraded: req.Estimator}
	if req.Timeout == nil {
		resp.Result = res
	}
	return resp
}

// checkAppendResponse compares AppendSolveResponse with json.Marshal
// byte for byte and checks that its output decodes to an equal value.
func checkAppendResponse(t *testing.T, resp *SolveResponse) {
	t.Helper()
	prefix := []byte("prefix")
	got, err := AppendSolveResponse(prefix, resp)
	want, wantErr := json.Marshal(resp)
	if errText(err) != errText(wantErr) {
		t.Fatalf("AppendSolveResponse error %q, json.Marshal error %q\nanswer: %#v", errText(err), errText(wantErr), resp)
	}
	if err != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("failed AppendSolveResponse changed dst to %q", got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendSolveResponse wrote\n%s\njson.Marshal wrote\n%s", got, want)
	}
	var back SolveResponse
	if err := json.Unmarshal(got[len(prefix):], &back); err != nil {
		t.Fatalf("output does not decode: %v\n%s", err, got)
	}
	if !reflect.DeepEqual(&back, resp) {
		t.Fatalf("output decodes to\n%#v\nnot\n%#v", &back, resp)
	}
}

// FuzzSolveWire is the differential test of the wire codec against
// encoding/json (checkSolveWire).
func FuzzSolveWire(f *testing.F) {
	for _, seed := range networkSeeds {
		f.Add(seed)
		f.Add(`{"network": ` + seed + `, "session_id": "s-1"}`)
	}
	for _, seed := range solveSeeds {
		f.Add(seed)
	}
	for _, seed := range declined {
		f.Add(seed)
	}
	f.Fuzz(checkSolveWire)
}

// declined are documents the fast path leaves to encoding/json, each for
// a different reason.
var declined = []string{
	``,
	` `,
	`null`,
	`[]`,
	`{"network": {"rate_mbps": 1}, "network": {"lifetime_ms": 2}}`,           // duplicate key: merged
	`{"Network": {"rate_mbps": 1}}`,                                          // case-folded key
	`{"network": {"RATE_MBPS": 1}}`,                                          // case-folded key
	`{"network": {"rate_mbps": 1, "bogus": 2}}`,                              // unknown field
	`{"netw\u006frk": {}}`,                                                   // escaped key
	`{"session_id": "a\"b"}`,                                                 // escaped string
	`{"session_id": "a\u00e9"}`,                                              // escaped string
	"{\"session_id\": \"tab\there\"}",                                        // control character
	"{\"session_id\": \"bad \xff utf-8\"}",                                   // invalid UTF-8
	`{"session_id": null}`,                                                   // null
	`{"network": {"cost_bound": null}}`,                                      // null pointer
	`{"network": {"rate_mbps": 01}}`,                                         // leading zero
	`{"network": {"rate_mbps": 1.}}`,                                         // bare decimal point
	`{"network": {"rate_mbps": .5}}`,                                         // no integer part
	`{"network": {"rate_mbps": +1}}`,                                         // plus sign
	`{"network": {"rate_mbps": 1e}}`,                                         // empty exponent
	`{"network": {"rate_mbps": 1e400}}`,                                      // out of range
	`{"network": {"rate_mbps": "1"}}`,                                        // string for a number
	`{"network": {"transmissions": 2.0}}`,                                    // fraction for an int
	`{"network": {"transmissions": 1e1}}`,                                    // exponent for an int
	`{"network": {"transmissions": 9223372036854775808}}`,                    // int overflow
	`{"estimator": 1}`,                                                       // number for a bool
	`{"estimator": tru}`,                                                     // truncated literal
	`{"estimator": truex}`,                                                   // no delimiter
	`{"network": {"paths": [{"bandwidth_mbps": 1},]}}`,                       // trailing comma
	`{"network": {"paths": {}}}`,                                             // object for an array
	`{"objective": "quality"} {"objective": "mincost"}`,                      // a second document
	`{"objective": "quality"} trailing`,                                      // trailing garbage
	`{"objective": "quality"`,                                                // truncated
	`{"network": {"rate_mbps": 1}, "objective": "mincost", "min_quality": }`, // missing value
}

func TestSolveWireDeclines(t *testing.T) {
	for _, input := range declined {
		if req, ok := fastParse([]byte(input)); ok {
			t.Errorf("fast path accepted %q as %#v", input, req)
		}
		checkSolveWire(t, input)
	}
}

// workloadBodies marshals requests shaped like dmcbench's two served
// workloads: 3×2 and 40×4 random networks with a session ID, quality
// and min-cost.
func workloadBodies(t testing.TB) [][]byte {
	rng := rand.New(rand.NewPCG(41, 7))
	var out [][]byte
	for _, shape := range [][2]int{{3, 2}, {40, 4}} {
		for i := 0; i < 8; i++ {
			net := experiments.RandomNetwork(rng, shape[0], shape[1])
			req := SolveRequest{Solve: Solve{Network: FromNetwork(net), Objective: ObjectiveQuality}, SessionID: fmt.Sprintf("s%d", i)}
			if i%2 == 1 {
				req.Objective, req.MinQuality = ObjectiveMinCost, 0.9*rng.Float64()
			}
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestSolveWireFastPath guards against a silent fallback: the bodies
// dmcd serves must take the hand-written parser.
func TestSolveWireFastPath(t *testing.T) {
	for _, b := range workloadBodies(t) {
		if _, ok := fastParse(b); !ok {
			t.Errorf("fast path declined a workload body: %s", b)
		}
		checkSolveWire(t, string(b))
	}
}

// TestSolveWireConcurrent loads from several goroutines at once: the
// pooled buffers must never carry one request into another.
func TestSolveWireConcurrent(t *testing.T) {
	bodies := workloadBodies(t)
	want := make([]SolveRequest, len(bodies))
	for i, b := range bodies {
		want[i], _ = jsonLoad(string(b))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(bodies)
				var got SolveRequest
				if err := Load(bytes.NewReader(bodies[i]), &got); err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: body %d loaded as %#v (%v)", g, i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoadFallbackKeepsReaderSemantics covers what only a reader shows:
// a read error part way, a body longer than the fast path buffers, and
// a destination that already holds values.
func TestLoadFallbackKeepsReaderSemantics(t *testing.T) {
	body := workloadBodies(t)[0]
	readErr := errors.New("read failed")
	for _, cut := range []int{0, 10, len(body) - 1, len(body)} {
		load := func(into func(io.Reader, any) error) (SolveRequest, error) {
			var req SolveRequest
			err := into(io.MultiReader(bytes.NewReader(body[:cut]), errReader{readErr}), &req)
			return req, err
		}
		got, gotErr := load(Load)
		want, wantErr := load(decodeJSON)
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("cut %d: Load gave %v, encoding/json %v", cut, gotErr, wantErr)
		}
	}

	var paths []string
	for i := 0; len(paths)*40 < maxFastBody; i++ {
		paths = append(paths, fmt.Sprintf(`{"bandwidth_mbps": %d, "delay_ms": 10}`, i+1))
	}
	long := `{"network": {"rate_mbps": 1, "lifetime_ms": 100, "paths": [` + strings.Join(paths, ",") + `]}}`
	if len(long) <= maxFastBody {
		t.Fatalf("long body is only %d bytes", len(long))
	}
	checkSolveWire(t, long)

	// encoding/json merges a document into what the destination holds.
	for _, input := range []string{solveSeeds[0], solveSeeds[2], `{"session_id": "new"}`} {
		for _, dst := range []SolveRequest{
			{SessionID: "old", BudgetMs: 5, Solve: Solve{MinQuality: 0.5}},
			{Solve: Solve{Network: Network{Paths: []Path{{Name: "kept", Loss: 0.5}}}}},
			{Solve: Solve{Timeout: &TimeoutSpec{RefineLevels: 2}}},
		} {
			got, want := clone(t, dst), clone(t, dst)
			gotErr := Load(strings.NewReader(input), &got)
			wantErr := decodeJSON(strings.NewReader(input), &want)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("into %#v: Load decoded %#v (%v), encoding/json %#v (%v)", dst, got, gotErr, want, wantErr)
			}
		}
	}
}

// clone deep-copies a request, so two decodes into it share no storage.
func clone(t *testing.T, r SolveRequest) SolveRequest {
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out SolveRequest
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// wireAnswers solves workload-shaped networks, three objectives, and
// returns their answers as the daemon writes them.
func wireAnswers(t testing.TB, n int) []*SolveResponse {
	rng := rand.New(rand.NewPCG(97, 3))
	var out []*SolveResponse
	for i := 0; len(out) < n; i++ {
		shape := [][2]int{{3, 2}, {40, 4}, {6, 2}}[i%3]
		net := experiments.RandomNetwork(rng, shape[0], shape[1])
		var (
			sol *core.Solution
			to  *core.Timeouts
			err error
		)
		switch i % 3 {
		case 0:
			sol, err = core.SolveQuality(net)
		case 1:
			sol, err = core.SolveMinCost(net, 0.5*rng.Float64())
		default:
			if to, err = core.DeterministicTimeouts(net, 0); err == nil {
				sol, err = core.SolveQualityRandom(net, to)
			}
		}
		if err != nil {
			continue
		}
		res := NewSolveResult(sol, to)
		out = append(out, &SolveResponse{SessionID: fmt.Sprintf("s%d", i), Resolved: i%4 != 3, Result: &res, Degraded: i%4 == 3})
	}
	return out
}

func TestAppendSolveResponseMatchesMarshal(t *testing.T) {
	for _, resp := range wireAnswers(t, 128) {
		checkAppendResponse(t, resp)
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, 1.5e300,
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125, 1.0 / 3}
	for _, f := range floats {
		checkAppendResponse(t, &SolveResponse{Result: &SolveResult{
			Quality: f, CostPerSecond: f, DropRateMbps: f,
			Shares:        []Share{{Combo: []int{-1, 0, 1 << 40}, Fraction: f, DeliveryProb: -f}},
			PathRatesMbps: []float64{f, -f}, TimeoutsMs: [][]float64{nil, {f}},
		}})
	}
	for _, id := range []string{"", "plain", `q"uote`, `back\slash`, "<html>&", "tab\t", "é", " ", "\x7f"} {
		checkAppendResponse(t, &SolveResponse{SessionID: id, Result: &SolveResult{Dispatch: id}})
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		checkAppendResponse(t, &SolveResponse{Result: &SolveResult{Quality: 0.5, CostPerSecond: bad}})
		checkAppendResponse(t, &SolveResponse{Result: &SolveResult{PathRatesMbps: []float64{1, bad}}})
	}
}

// BenchmarkSolveWire compares the wire codec with encoding/json on
// requests and answers shaped like the served workloads, 3×2 and 40×4.
func BenchmarkSolveWire(b *testing.B) {
	bodies := workloadBodies(b)
	answerOf := func(paths int) *SolveResponse {
		for _, a := range wireAnswers(b, 6) {
			if len(a.Result.PathRatesMbps) == paths {
				return a
			}
		}
		b.Fatalf("no %d-path answer", paths)
		return nil
	}
	for _, size := range []struct {
		name   string
		body   []byte
		answer *SolveResponse
	}{
		{"3x2", bodies[0], answerOf(3)},
		{"40x4", bodies[len(bodies)-1], answerOf(40)},
	} {
		b.Run("decode/"+size.name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var req SolveRequest
				if err := Load(bytes.NewReader(size.body), &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+size.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var req SolveRequest
				if err := decodeJSON(bytes.NewReader(size.body), &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+size.name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				var err error
				if buf, err = AppendSolveResponse(buf[:0], size.answer); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+size.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for b.Loop() {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(size.answer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
