package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The allocation gate: allocs/op does not depend on the machine, so a
// change may add at most max(abAllocSlack, abAllocFrac·REF) allocations
// per op to a critical benchmark.
const (
	abAllocSlack = 2
	abAllocFrac  = 0.10
)

// runAB runs pairs alternating pairs of the critical benchmarks on two
// root test binaries, REF's and the working tree's, and reports each
// benchmark's median per-pair ns/op ratio, the pairs in which the
// current tree was faster, REF's interquartile range and both sides'
// median allocs/op and B/op, with each extra metric the benchmark
// reports (such as cg-iters/op) on a line below it. B/op and the extra
// metrics are reported only; they gate nothing.
// It returns the exit status: 1 when a median ratio exceeds
// 1 + threshold/100 or allocs/op exceed the allocation gate, else 0.
// Which side runs first alternates by pair, so
// a machine that speeds up or slows down during the run does not favour
// either.
func runAB(refBin, curBin string, pairs int, benchtime string, critical string, threshold float64) int {
	if pairs < 1 {
		fatal(fmt.Errorf("-pairs %d: need at least one pair", pairs))
	}
	var ref, cur []map[string]entry
	var order []string
	seen := map[string]bool{}
	type side struct {
		bin string
		out *[]map[string]entry
	}
	for i := range pairs {
		sides := []side{{refBin, &ref}, {curBin, &cur}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, sd := range sides {
			got, names, err := runBench(sd.bin, critical, benchtime)
			if err != nil {
				fatal(err)
			}
			for _, n := range names {
				if !seen[n] {
					seen[n] = true
					order = append(order, n)
				}
			}
			*sd.out = append(*sd.out, got)
		}
		fmt.Fprintf(os.Stderr, "bench-ab: pair %d/%d done\n", i+1, pairs)
	}

	fmt.Printf("%d alternating pairs; ratio = current/REF ns/op per pair\n\n", pairs)
	fmt.Printf("%-52s %7s %6s %-24s %8s %8s %10s %10s\n", "benchmark", "ratio", "faster", "REF ns/op IQR", "allocs", "REF", "B/op", "REF")
	slow, fat := 0, 0
	for _, name := range order {
		var ratios, refNs, refAllocs, curAllocs, refBytes, curBytes []float64
		for i := range pairs {
			r, rok := ref[i][name]
			c, cok := cur[i][name]
			if rok {
				refNs = append(refNs, r.NsPerOp)
				refAllocs = append(refAllocs, r.AllocsPerOp)
				refBytes = append(refBytes, r.BPerOp)
			}
			if cok {
				curAllocs = append(curAllocs, c.AllocsPerOp)
				curBytes = append(curBytes, c.BPerOp)
			}
			if rok && cok && r.NsPerOp > 0 {
				ratios = append(ratios, c.NsPerOp/r.NsPerOp)
			}
		}
		if len(ratios) == 0 {
			side := "current"
			if len(refNs) > 0 {
				side = "REF"
			}
			fmt.Printf("%-52s (only in %s)\n", name, side)
			continue
		}
		ratio, faster := quantile(ratios, 0.5), 0
		for _, r := range ratios {
			if r < 1 {
				faster++
			}
		}
		ra, ca := quantile(refAllocs, 0.5), quantile(curAllocs, 0.5)
		mark := ""
		if ratio > 1+threshold/100 {
			mark += "  SLOWER"
			slow++
		}
		if ca > ra+math.Max(abAllocSlack, abAllocFrac*ra) {
			mark += "  MORE ALLOCS"
			fat++
		}
		iqr := fmt.Sprintf("%.0f–%.0f", quantile(refNs, 0.25), quantile(refNs, 0.75))
		fmt.Printf("%-52s %7.3f %6s %-24s %8.0f %8.0f %10.0f %10.0f%s\n", name, ratio, fmt.Sprintf("%d/%d", faster, len(ratios)), iqr, ca, ra,
			quantile(curBytes, 0.5), quantile(refBytes, 0.5), mark)
		if extras := extraMedians(name, cur, ref); extras != "" {
			fmt.Printf("    %s\n", extras)
		}
	}
	status := 0
	if slow > 0 {
		fmt.Printf("\n%d benchmark(s) slower than REF by more than %.0f%% in median per-pair ns/op\n", slow, threshold)
		status = 1
	}
	if fat > 0 {
		fmt.Printf("\n%d benchmark(s) over REF's allocs/op by more than max(%d, %.0f%%)\n", fat, abAllocSlack, abAllocFrac*100)
		status = 1
	}
	if status == 0 {
		fmt.Printf("\nno median ratio above %.2f and no allocation regressions\n", 1+threshold/100)
	}
	return status
}

// extraMedians formats the median of each extra metric of benchmark
// name over the current runs, with REF's median beside it ("–" where
// REF does not report it), in unit order; "" when there are none.
func extraMedians(name string, cur, ref []map[string]entry) string {
	medians := func(runs []map[string]entry) map[string]float64 {
		vals := map[string][]float64{}
		for _, run := range runs {
			for unit, v := range run[name].Extra {
				vals[unit] = append(vals[unit], v)
			}
		}
		out := make(map[string]float64, len(vals))
		for unit, vs := range vals {
			out[unit] = quantile(vs, 0.5)
		}
		return out
	}
	c, r := medians(cur), medians(ref)
	units := make([]string, 0, len(c))
	for unit := range c {
		units = append(units, unit)
	}
	sort.Strings(units)
	var b strings.Builder
	for _, unit := range units {
		refV := "–"
		if v, ok := r[unit]; ok {
			refV = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintf(&b, "%s %.4g (REF %s)   ", unit, c[unit], refV)
	}
	return strings.TrimSpace(b.String())
}

// runBench runs one test binary's benchmarks matching pattern, with
// -benchmem on 2 CPUs, and parses the results.
func runBench(bin, pattern, benchtime string) (map[string]entry, []string, error) {
	if !filepath.IsAbs(bin) {
		bin = "./" + bin // exec looks a bare file name up in $PATH
	}
	cmd := exec.Command(bin, "-test.run=^$", "-test.bench="+pattern, "-test.benchmem",
		"-test.cpu=2", "-test.benchtime="+benchtime, "-test.timeout=30m")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w\n%s", bin, err, out)
	}
	got, order, err := parseBench(bytes.NewReader(out))
	if err == nil && len(got) == 0 {
		err = fmt.Errorf("%s: no benchmark matches %q", bin, pattern)
	}
	return got, order, err
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
