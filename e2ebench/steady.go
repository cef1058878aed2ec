package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchFile is the part of BENCHMARK.json the steadiness report reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload k times for run_seconds each, in a process of
// its own per run with seeds 1..k, and prints every end-to-end metric's
// median, quartiles and spread (Q3-Q1 over the median) next to its bound in
// BENCHMARK.json, read from the working directory. A metric whose spread
// exceeds its bound cannot resolve a change of that size and is flagged
// UNRESOLVED; one above a third of its bound is flagged wide.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 5, "number of runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := specByName(*name); err != nil || *runs < 2 {
		fmt.Fprintf(os.Stderr, "e2ebench steady: need a known --workload and --runs >= 2 (%v)\n", err)
		return 2
	}
	var bf benchFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench steady: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench steady: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	shares := make(map[string]bool)
	for seed := 1; seed <= *runs; seed++ {
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench steady: seed %d: %v\n", seed, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench steady: seed %d: %v\n", seed, err)
			return 1
		}
		g := gcd(res.Failed, res.Attempted)
		shares[fmt.Sprintf("%d/%d", res.Failed/g, res.Attempted/g)] = true
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", seed, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedNames(res.Metrics) {
			values[k] = append(values[k], res.Metrics[k].Value)
			fmt.Printf(" %s=%.6g", k, res.Metrics[k].Value)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-18s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		spread := (q3 - q1) / q2
		verdict := "ok"
		switch {
		case spread > m.Bound:
			verdict = "UNRESOLVED"
		case spread > m.Bound/3:
			verdict = "wide"
		}
		fmt.Printf("%-18s %12.6g %12.6g %12.6g %8.4f %7.3f  %s\n", m.Name, q2, q1, q3, spread, m.Bound, verdict)
	}
	if len(shares) != 1 {
		fmt.Printf("failed share differs between runs: %v\n", shares)
		return 1
	}
	return 0
}

func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
