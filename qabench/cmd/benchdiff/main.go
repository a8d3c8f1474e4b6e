// Command benchdiff summarises and compares sets of qaload runs.
//
// Each input file holds one run result per line (the last line qaload
// prints; qabench/runs.sh collects them). With one file it prints, for
// every metric, the median, the quartiles and the spread (quartile
// distance over the median) and checks the spread against the bound
// BENCHMARK.json gives the metric: a benchmark is steady when every
// end-to-end spread but setup_s's stays within a third of its bound.
// With two files (the parent's runs, then the change's) it also prints
// each metric's median change and a verdict:
//
//	worse       the change's median is worse by more than the bound
//	better      better by more than the bound and the parent's spread
//	unresolved  either side's spread is wider than the bound
//	same        otherwise
//
// Usage:
//
//	benchdiff [-bench BENCHMARK.json] base.jsonl [change.jsonl]
//
// Quartiles follow Python's statistics.quantiles(values, n=4).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-bench BENCHMARK.json] base.jsonl [change.jsonl]")
		os.Exit(2)
	}
	spec, err := readSpec(*benchPath)
	if err != nil {
		fail(err)
	}
	var sides [][]run
	for _, path := range flag.Args() {
		runs, err := readRuns(path)
		if err != nil {
			fail(err)
		}
		sides = append(sides, runs)
	}
	steady := true
	for i, runs := range sides {
		bad := 0
		for _, r := range runs {
			if !r.Correct {
				bad++
			}
		}
		fmt.Printf("%s: %d runs, %d not correct\n", flag.Arg(i), len(runs), bad)
		if bad > 0 {
			steady = false
		}
	}
	fmt.Printf("%-24s %-6s %12s %12s %12s %8s %7s", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	if len(sides) == 2 {
		fmt.Printf(" %12s %8s %8s  %s", "change", "delta", "spread", "verdict")
	}
	fmt.Println()
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		base := values(sides[0], m.Name)
		if len(base) == 0 {
			continue
		}
		bq := quartiles(base)
		bs := spread(bq)
		bound := math.NaN()
		if m.Bound != nil {
			bound = *m.Bound
		}
		fmt.Printf("%-24s %-6s %12.6g %12.6g %12.6g %7.2f%% %6.1f%%", m.Name, m.Unit, bq[1], bq[0], bq[2], 100*bs, 100*bound)
		if m.Bound != nil && m.Name != "setup_s" && !(bs <= bound/3) {
			steady = false
			fmt.Print(" !")
		}
		if len(sides) == 2 {
			change := values(sides[1], m.Name)
			if len(change) > 0 {
				cq := quartiles(change)
				cs := spread(cq)
				delta := (cq[1] - bq[1]) / math.Abs(bq[1])
				fmt.Printf(" %12.6g %7.2f%% %7.2f%%  %s", cq[1], 100*delta, 100*cs, verdict(m, delta, bs, cs))
			}
		}
		fmt.Println()
	}
	if !steady {
		fmt.Println("not steady: a run was not correct, or an end-to-end spread exceeds a third of its bound (marked !)")
		os.Exit(1)
	}
}

func verdict(m metricSpec, delta, baseSpread, changeSpread float64) string {
	if m.Bound == nil {
		return "-"
	}
	bound := *m.Bound
	if m.Better == "lower" {
		delta = -delta // positive = improvement
	}
	switch {
	case delta < -bound:
		return "worse"
	case baseSpread > bound || changeSpread > bound:
		return "unresolved"
	case delta > bound && delta > baseSpread:
		return "better"
	}
	return "same"
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method; a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 1 {
		return [3]float64{data[0], data[0], data[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return out
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
