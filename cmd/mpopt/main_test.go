package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const tableIIIJSON = `{
	"rate_mbps": 90, "lifetime_ms": 800,
	"paths": [
		{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
		{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
	]
}`

func TestQualityObjective(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(tableIIIJSON), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "93.33%") {
		t.Errorf("output missing quality:\n%s", s)
	}
	if !strings.Contains(s, "path1") || !strings.Contains(s, "t1=600ms") {
		t.Errorf("output missing details:\n%s", s)
	}
}

func TestExactObjective(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exact"}, strings.NewReader(tableIIIJSON), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quality") {
		t.Errorf("exact output:\n%s", out.String())
	}
}

func TestMinCostObjective(t *testing.T) {
	in := `{
		"rate_mbps": 10, "lifetime_ms": 800,
		"paths": [
			{"name": "cheap", "bandwidth_mbps": 50, "delay_ms": 200, "loss": 0.3, "cost": 1},
			{"name": "pricey", "bandwidth_mbps": 50, "delay_ms": 100, "cost": 10}
		]
	}`
	var out strings.Builder
	if err := run([]string{"-objective", "mincost", "-min-quality", "1.0"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total cost: 4e+07") {
		t.Errorf("mincost output:\n%s", out.String())
	}
}

func TestRandomObjective(t *testing.T) {
	in := `{
		"rate_mbps": 90, "lifetime_ms": 750,
		"paths": [
			{"name": "p1", "bandwidth_mbps": 80, "loss": 0.2,
			 "delay_gamma": {"loc_ms": 400, "shape": 10, "scale_ms": 4}},
			{"name": "p2", "bandwidth_mbps": 20,
			 "delay_gamma": {"loc_ms": 100, "shape": 5, "scale_ms": 2}}
		]
	}`
	var out strings.Builder
	if err := run([]string{"-objective", "random"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "optimized timeouts") || !strings.Contains(s, "93.3") {
		t.Errorf("random output:\n%s", s)
	}
	// The solution was solved with the optimized table, not with Eq. 4's.
	if strings.Contains(s, "Eq. 4") {
		t.Errorf("random output prints Eq. 4 timeouts its solution does not use:\n%s", s)
	}
}

func TestInputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, []byte(tableIIIJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-in", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "93.33%") {
		t.Error("file input failed")
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("{bad json"), &out); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := run([]string{"-objective", "nonsense"}, strings.NewReader(tableIIIJSON), &out); err == nil {
		t.Error("bad objective accepted")
	}
	if err := run([]string{"-in", "/nonexistent/file.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-objective", "mincost", "-min-quality", "2"}, strings.NewReader(tableIIIJSON), &out); err == nil {
		t.Error("impossible quality floor accepted")
	}
}
