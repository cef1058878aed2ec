// Command e2ebench is the repository's end-to-end benchmark. It stands the
// serving tier up in process, drives one of three seeded workloads through
// the real HTTP handlers from a single goroutine while moving the virtual
// clock itself, checks every output against an independent computation or
// a property, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	e2ebench --workload paper-mix|churn|crowd --seed n --seconds s --trace 0|1
//	e2ebench steady --workload w --runs k
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a separate traced run. steady runs one workload k times with
// seeds 1..k for run_seconds each and prints each end-to-end metric's
// quartiles and spread next to its bound, both read from BENCHMARK.json in
// the working directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// cycle is the number of rounds in a cycle: cycle-1 distinct scripts, one
// per round, and then script 0 again, so that every run checks that a
// script's ETA samples repeat exactly. A run makes whole cycles of rounds;
// ETA accuracy is scored over the distinct scripts of the first cycle, so it
// depends on the seed alone and not on how many cycles fit.
const cycle = 8

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-mix, churn or crowd")
	seed := fs.Int64("seed", 1, "seed of the dataset and the request script")
	seconds := fs.Float64("seconds", 0, "how long the run measures, in wall seconds (required)")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0) {
		err = fmt.Errorf("need --seconds > 0, --trace 0 or 1 and no other arguments")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments: %v\n", err)
		fs.Usage()
		return 2
	}
	res, err := run(s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", s.Name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// run executes one benchmark run: the set-up checks, then whole cycles of
// rounds for as long as another cycle fits in d (at least one cycle).
func run(s spec, seed int64, d time.Duration, traced bool) (result, error) {
	scripts := make([]script, cycle-1)
	var pairs []query
	for k := range scripts {
		scripts[k] = genScript(s, seed*cycle+int64(k))
		pairs = append(pairs, scripts[k].pairs()...)
	}
	pairs = script{Queries: pairs}.pairs()
	db, err := buildDB(s, seed)
	if err != nil {
		return result{}, fmt.Errorf("oracle replica: %w", err)
	}
	solo, err := runOracle(db, pairs)
	if err != nil {
		return result{}, err
	}
	db = nil // release the replica before anything is measured

	tl := newTally(s.Name)
	round := func(k int, traced bool) (roundResult, error) {
		rr, err := runRound(s, scripts[k], seed, solo, traced)
		rr.script = k
		tl.count(rr)
		if err != nil {
			return rr, fmt.Errorf("round %d: %w", tl.rounds-1, err)
		}
		tl.judge(rr)
		return rr, nil
	}
	cycles := func(traced bool, d time.Duration) ([]roundResult, error) {
		var rounds []roundResult
		start := time.Now()
		for n := 1; ; n++ {
			for k := 0; k < cycle; k++ {
				rr, err := round(k%len(scripts), traced)
				if err != nil {
					return nil, err
				}
				rounds = append(rounds, rr)
			}
			perCycle := time.Since(start) / time.Duration(n)
			if time.Since(start)+perCycle > d {
				return rounds, nil
			}
		}
	}
	var baseline []roundResult
	if traced {
		// An untraced cycle is the baseline of the tracing overhead; it is
		// not part of the traced figures.
		if baseline, err = cycles(false, 0); err != nil {
			return tl.res, err
		}
	}
	rounds, err := cycles(traced, d)
	if err != nil {
		return tl.res, err
	}
	res := tl.res
	if traced {
		var p layerProbes
		if err := probeEngine(s, seed, pairs, &p); err != nil {
			return res, fmt.Errorf("engine probe: %w", err)
		}
		if err := probeSched(s, seed, rounds[0].submits, &p); err != nil {
			return res, fmt.Errorf("sched replay: %w", err)
		}
		if err := probeOtherShape(s, seed, scripts[0].Queries, &p); err != nil {
			return res, fmt.Errorf("tier probe: %w", err)
		}
		res.Metrics = layerMetrics(s, rounds, &p, baseline)
	} else {
		res.Metrics = endToEnd(rounds)
	}
	printTable(s, rounds, res.Metrics)
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is %g", k, m.Value)
		}
	}
	return res, nil
}

// tally adds a run's rounds up into its result.
type tally struct {
	res    result
	name   string
	rounds int
	first  map[int]etaFigures // by script: the ETA figures of its first round
}

// etaFigures are what a round's ETA samples sum to.
type etaFigures struct {
	n   int
	sum float64
}

func newTally(name string) *tally {
	return &tally{res: result{Correct: true}, name: name, first: make(map[int]etaFigures)}
}

// count adds a round's operations and reports its failures and violations.
func (t *tally) count(rr roundResult) {
	t.res.Attempted += rr.attempted
	t.res.Failed += rr.failed
	for _, e := range rr.errs {
		fmt.Fprintf(os.Stderr, "e2ebench: %s round %d: %s\n", t.name, t.rounds, e)
	}
	t.rounds++
}

// judge takes a completed round's verdict. Virtual time is deterministic,
// so every round of a script must give the same ETA samples as its first.
func (t *tally) judge(rr roundResult) {
	if rr.wrong {
		t.res.Correct = false
	}
	fig := etaFigures{rr.etaErrN, rr.etaErrSum}
	if prev, ok := t.first[rr.script]; !ok {
		t.first[rr.script] = fig
	} else if prev != fig {
		fmt.Fprintf(os.Stderr, "e2ebench: %s round %d: ETA samples differ from an earlier run of script %d\n", t.name, t.rounds-1, rr.script)
		t.res.Correct = false
	}
}

// endToEnd computes the user-visible metrics over untraced rounds. Every
// round of a script does the same work, so each figure is computed per
// round and the run reports the median over its rounds: a stall of the
// shared host, or a burst of collector work, that hits one round does not
// move it. ETA accuracy instead pools the first cycle's distinct scripts.
func endToEnd(rounds []roundResult) map[string]metric {
	per := make(map[string][]float64)
	var errSum float64
	var n int
	for i, rr := range rounds {
		for k, v := range map[string]float64{
			"qps":             float64(rr.finished) / rr.wall.Seconds(),
			"submit_ms_p50":   percentile(rr.submitMS, 50),
			"submit_ms_p95":   percentile(rr.submitMS, 95),
			"poll_ms_p50":     percentile(rr.pollMS, 50),
			"poll_ms_p95":     percentile(rr.pollMS, 95),
			"overview_ms_p50": percentile(rr.overMS, 50),
			"live_heap_mb":    rr.heapMB,
			"setup_s":         rr.setup.Seconds(),
		} {
			per[k] = append(per[k], v)
		}
		if i < cycle-1 {
			errSum += rr.etaErrSum
			n += rr.etaErrN
		}
	}
	out := map[string]metric{"eta_rel_err": {errSum / float64(n), "ratio"}}
	for k, unit := range map[string]string{
		"qps": "1/s", "submit_ms_p50": "ms", "submit_ms_p95": "ms", "poll_ms_p50": "ms",
		"poll_ms_p95": "ms", "overview_ms_p50": "ms", "live_heap_mb": "MB", "setup_s": "s",
	} {
		out[k] = metric{median(per[k]), unit}
	}
	return out
}

// printTable writes a readable summary before the JSON line.
func printTable(s spec, rounds []roundResult, ms map[string]metric) {
	r := rounds[len(rounds)-1]
	fmt.Printf("workload %s: %d rounds; per round %d submits, %d polls, %d overviews, %d finished, %d ETA samples\n",
		s.Name, len(rounds), len(r.submitMS), len(r.pollMS), len(r.overMS), r.finished, r.etaErrN)
	for _, k := range sortedNames(ms) {
		fmt.Printf("  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	for i, rr := range rounds {
		fmt.Printf("  round %d (script %d): qps %.4g, submit p50/p95 %.4g/%.4g ms, poll p50/p95 %.4g/%.4g ms, overview p50 %.4g ms, set-up %.4g s\n",
			i, rr.script, float64(rr.finished)/rr.wall.Seconds(),
			percentile(rr.submitMS, 50), percentile(rr.submitMS, 95),
			percentile(rr.pollMS, 50), percentile(rr.pollMS, 95),
			percentile(rr.overMS, 50), rr.setup.Seconds())
	}
}
