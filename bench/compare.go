package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges side b against side a on one (metric × workload) by the
// rules of the choosing-metrics guide:
//
//   - unresolved: either side's interquartile spread is wider than the
//     bound, unless every run of one side beats every run of the other;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: b's median is better by more than a's own spread, b wins at
//     least nine tenths of the index-paired runs, and both sides have at
//     least three runs;
//   - same: anything else.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	beats := func(x, y float64) bool { // x is better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && beats(y, x)
			allWorse = allWorse && beats(x, y)
		}
	}
	if (spread(a) > bound || spread(b) > bound) && !allBetter && !allWorse {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worsening := (mb - ma) / ma
	if !lowerBetter {
		worsening = -worsening
	}
	if worsening > bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	if -worsening > spread(a) && pairs >= 3 && wins*10 >= pairs*9 {
		return "better"
	}
	return "same"
}

func readSuite(path string) (*suiteFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// failedShare is operations failed ÷ attempted over every run of a workload,
// traced or not.
func (f *suiteFile) failedShare(workload string) (share float64, failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	if attempted == 0 {
		return 1, 0, 0 // no run at all counts as failed
	}
	return float64(failed) / float64(attempted), failed, attempted
}

// values collects one metric of one workload over the runs of a file.
func (f *suiteFile) values(workload, name string, trace int) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// runCompare prints, per end-to-end metric and workload, each side's median
// and quartiles, the bound and the verdict, then failed_share per workload
// (its bound is 0 absolute: any failed operation on side B is "worse") and
// every count that moved.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSuite(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readSuite(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "A %s (commit %s, %d sets)   B %s (commit %s, %d sets)\n", args[0], a.Host.Commit, a.Sets, args[1], b.Host.Commit, b.Sets)
	fmt.Fprintf(stdout, "%-16s %-15s %-6s %38s %38s %8s %6s  %s\n", "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound", "verdict")
	side := func(v []float64) string {
		q1, q3 := quartiles(v)
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(v), q1, q3, len(v))
	}
	status := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, d.Name, 0), b.values(w.Name, d.Name, 0)
			v := verdict(va, vb, d.Better == "lower", d.Bound)
			if v == "worse" {
				status = 1
			}
			change := 0.0
			if ma := median(va); ma != 0 {
				change = (median(vb) - ma) / ma * 100
			}
			fmt.Fprintf(stdout, "%-16s %-15s %-6s %38s %38s %+7.2f%% %5.0f%%  %s\n", w.Name, d.Name, d.Unit, side(va), side(vb), change, d.Bound*100, v)
		}
	}
	for _, w := range workloads {
		sa, fa, na := a.failedShare(w.Name)
		sb, fb, nb := b.failedShare(w.Name)
		v := "same"
		if sb > 0 {
			v, status = "worse", 1
		} else if sa > 0 {
			v = "better"
		}
		fmt.Fprintf(stdout, "%-16s %-15s %-6s %38s %38s %8s %6s  %s\n", w.Name, "failed_share", "ratio",
			fmt.Sprintf("%.3g (%d of %d)", sa, fa, na), fmt.Sprintf("%.3g (%d of %d)", sb, fb, nb), "", "0", v)
	}
	for _, w := range workloads {
		for _, d := range perLayer {
			if !d.Count {
				continue
			}
			all := append(a.values(w.Name, d.Name, 1), b.values(w.Name, d.Name, 1)...)
			for _, v := range all {
				if v != all[0] {
					fmt.Fprintf(stdout, "count moved: %s %s %v\n", w.Name, d.Name, all)
					break
				}
			}
		}
	}
	return status
}
