package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// networkSeeds seed FuzzLoadNetwork, and FuzzSolveWire both as they are
// and as a request's network.
var networkSeeds = []string{
	tableIIIJSON,
	`{"rate_mbps": 1, "lifetime_ms": 1, "paths": [{"bandwidth_mbps": 1}]}`,
	`{"rate_mbps": -5}`,
	`{"paths": [{"delay_gamma": {"loc_ms": -1, "shape": 0, "scale_ms": 0}}]}`,
	`[]`,
	`{"rate_mbps": 1e308, "lifetime_ms": 1e308, "paths": [{"bandwidth_mbps": 1e308, "delay_ms": 1e308}]}`,
}

// solveSeeds seed FuzzSolveRoundTrip and FuzzSolveWire.
var solveSeeds = []string{
	`{"network": ` + tableIIIJSON + `}`,
	`{"network": ` + tableIIIJSON + `, "objective": "mincost", "min_quality": 0.95}`,
	`{"network": ` + tableIIIJSON + `, "objective": "random",
		"timeout": {"grid_step_ms": 2, "refine_levels": 3, "convolution_nodes": 500}}`,
	`{"network": ` + tableIIIJSON + `, "session_id": "sess-1", "estimator": true}`,
	`{"network": {"rate_mbps": 1, "lifetime_ms": 1, "cost_bound": 3, "transmissions": 3,
		"paths": [{"bandwidth_mbps": 1, "delay_gamma": {"loc_ms": 5, "shape": 2, "scale_ms": 1}}]}}`,
}

// FuzzLoadNetwork ensures arbitrary JSON never panics the loader or the
// model conversion — errors are the only acceptable failure mode.
func FuzzLoadNetwork(f *testing.F) {
	for _, seed := range networkSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var n Network
		if err := Load(strings.NewReader(input), &n); err != nil {
			return
		}
		net, err := n.ToNetwork()
		if err != nil {
			return
		}
		// A successfully converted network must pass its own validation.
		if err := net.Validate(); err != nil {
			t.Fatalf("ToNetwork returned invalid network: %v\ninput: %s", err, input)
		}
	})
}

// FuzzSolveRoundTrip checks that every parse-able, valid solve request —
// objective selector, quality floor, timeout options, session routing —
// survives a JSON round trip losslessly: marshal(load(x)) must be a
// fixed point. A field the marshaller drops or renames breaks daemon
// clients silently, which is exactly what this target exists to catch.
func FuzzSolveRoundTrip(f *testing.F) {
	for _, seed := range solveSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var req SolveRequest
		if err := Load(strings.NewReader(input), &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal of loaded request failed: %v\ninput: %s", err, input)
		}
		var again SolveRequest
		if err := Load(bytes.NewReader(first), &again); err != nil {
			t.Fatalf("re-load of marshalled request failed: %v\njson: %s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not a fixed point:\nfirst:  %s\nsecond: %s", first, second)
		}
		if _, err := again.ObjectiveKind(); err != nil {
			t.Fatalf("validated request lost its objective: %v", err)
		}
	})
}

// FuzzLoadSimulation exercises the full simulation config parser the same
// way (without running simulations — only parse + convert).
func FuzzLoadSimulation(f *testing.F) {
	f.Add(`{"model": ` + tableIIIJSON + `, "messages": 10}`)
	f.Add(`{"model": {}, "true": {}}`)
	f.Fuzz(func(t *testing.T, input string) {
		var s Simulation
		if err := Load(strings.NewReader(input), &s); err != nil {
			return
		}
		if _, err := s.Model.ToNetwork(); err != nil {
			return
		}
		if s.True != nil {
			_, _ = s.True.ToNetwork()
		}
	})
}

// FuzzSnapshotRoundTrip hammers the durability schema with hostile
// bytes: any record that parses and validates must survive a JSON round
// trip as a fixed point (marshal∘load = id), and the version peek must
// never panic. A field the marshaller drops breaks restart recovery
// silently — the worst possible failure mode for a durability layer.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(`{"v": 1, "seq": 3, "kind": "session", "session": {"id": "s1",
		"solve": {"network": ` + tableIIIJSON + `}}}`)
	f.Add(`{"v": 1, "seq": 4, "kind": "session", "session": {"id": "s2",
		"solve": {"network": ` + tableIIIJSON + `}, "estimator": true,
		"estimates": [{"sent": 100, "lost": 3, "srtt_sec": 0.45, "rttvar_sec": 0.02, "rtt_samples": 40},
		              {"sent": 90, "srtt_sec": 0.15, "rttvar_sec": 0.01, "rtt_samples": 40}]}}`)
	f.Add(`{"v": 1, "seq": 9, "kind": "drop", "session_id": "s1"}`)
	f.Add(`{"v": 2, "kind": "session", "future_field": true}`)
	f.Add(`{"v": -1}`)
	f.Add(`{"v": 1, "seq": 5, "kind": "session", "session": {"id": "s3",
		"solve": {"network": ` + tableIIIJSON + `}, "estimates": [{"sent": -1}]}}`)
	f.Fuzz(func(t *testing.T, input string) {
		if v, err := SnapshotRecordVersion([]byte(input)); err == nil {
			// The peek is lenient by design; only the strict check decides.
			_ = CheckSnapshotVersion(v)
		}
		var rec SnapshotRecord
		if err := Load(strings.NewReader(input), &rec); err != nil {
			return
		}
		if err := rec.Validate(); err != nil {
			return
		}
		first, err := json.Marshal(&rec)
		if err != nil {
			t.Fatalf("marshal of valid record failed: %v\ninput: %s", err, input)
		}
		var again SnapshotRecord
		if err := Load(bytes.NewReader(first), &again); err != nil {
			t.Fatalf("re-load of marshalled record failed: %v\njson: %s", err, first)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("round-tripped record no longer valid: %v\njson: %s", err, first)
		}
		second, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not a fixed point:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
