package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mqpi/internal/core"
	"mqpi/internal/workload"
)

// spec fixes everything about a workload except its seed: the dataset, the
// serving tier's shape and the traffic the benchmark drives into it.
type spec struct {
	Name string
	// Tier shape. Shards > 1 selects the cluster front door.
	Shards    int
	Routing   string
	Estimator string
	RateC     float64 // U per virtual second, per shard
	MPL       int     // 0 = unlimited
	Weights   map[int]float64

	// Dataset: lineitem cardinality and N_i of each part_i (10·N_i rows).
	Rows  int
	Parts []int

	// Traffic. Open loop: Poisson arrivals at Lambda per virtual second.
	// Closed loop (Clients > 0): Clients queries stay outstanding, and each
	// observed finish releases the next submit.
	Queries int     // submits per round
	Lambda  float64 // open-loop arrival rate
	Clients int     // closed-loop outstanding queries
	Step    float64 // virtual seconds the clock moves per step

	PollsPerStep  int // polls of every live query per step
	OverviewEvery int // steps between overview reads

	// Control traffic, each as "every n steps" (0 = never).
	AbortEvery    int
	BlockEvery    int
	PriorityEvery int
	ExecEvery     int
}

const (
	quantum  = 0.5 // virtual seconds per scheduler tick
	zipfA    = 1.0 // skew of the part-table choice: P(part_k) ∝ 1/k
	blockFor = 5   // steps a blocked query stays blocked
)

// specs are the benchmark's workloads. Their sizes are recorded, with the
// reasons for them, in README.md.
var specs = []spec{
	{
		Name: "paper-mix", Shards: 1, Estimator: core.EstimatorStage,
		RateC: 80000, MPL: 8,
		Rows: 120000, Parts: []int{200, 40, 80},
		Queries: 200, Lambda: 1.4, Step: 0.5,
		PollsPerStep: 1, OverviewEvery: 6,
	},
	{
		Name: "churn", Shards: 1, Estimator: core.EstimatorStage,
		RateC: 4000, MPL: 16, Weights: map[int]float64{1: 2, 2: 4},
		Rows: 15000, Parts: []int{2, 3, 5},
		Queries: 2500, Lambda: 3, Step: 1,
		PollsPerStep: 1, OverviewEvery: 25,
		AbortEvery: 7, BlockEvery: 11, PriorityEvery: 5, ExecEvery: 13,
	},
	{
		Name: "crowd", Shards: 2, Routing: "least-loaded", Estimator: core.EstimatorEnsemble,
		RateC: 1000,
		Rows:  15000, Parts: []int{25, 5, 10},
		Queries: 400, Clients: 40, Step: 2,
		PollsPerStep: 3, OverviewEvery: 5,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// query is one submit of the script: a template over a part table.
type query struct {
	Table    int // part_i index, 1-based
	Template workload.QueryTemplate
	Priority int
}

func (q query) SQL() string { return workload.QuerySQLVariant(q.Table, q.Template) }

// ctrlKind is a control operation on a live query.
type ctrlKind uint8

const (
	ctrlAbort ctrlKind = iota
	ctrlBlock
	ctrlPriority
)

// ctrl is a control operation. The target is resolved when it runs, as
// Pick modulo the live running queries in ID order, because which queries
// are running is a property of the served system, not of the script.
type ctrl struct {
	Kind     ctrlKind
	Pick     uint32
	Priority int
}

// step is what the benchmark does before the clock moves by spec.Step. In
// a closed loop Submits stays empty: the script's query list is consumed as
// finishes release clients.
type step struct {
	Submits []query
	Ctrls   []ctrl
	Exec    string // DML statement, "" for none
}

// script is a whole round's requests, generated from the seed alone.
type script struct {
	Steps   []step
	Queries []query // every submit, in submit order
}

// sentinelKey returns the lineitem partkey that churn's writes use: one
// past the generated key range, so no part table holds it and no query's
// index probe ever lands on it. The dataset is built with one sentinel row
// already indexed, so later writes only append to that key's posting list
// and never reshape the B+-tree that the queries probe.
func sentinelKey(rows int) int64 { return int64(rows/30) + 1 }

// dmlStatements are the writes churn cycles through, in order.
func dmlStatements(key int64) []string {
	return []string{
		fmt.Sprintf("INSERT INTO lineitem VALUES (%d, 7, 7000.0, 0.05), (%d, 3, 3100.0, 0.02)", key, key),
		fmt.Sprintf("UPDATE lineitem SET discount = discount + 0.01 WHERE partkey = %d AND quantity = 7", key),
		fmt.Sprintf("DELETE FROM lineitem WHERE partkey = %d AND quantity = 3", key),
	}
}

// mix returns the round's queries in a random order. The mix itself is
// stratified rather than sampled: each part table gets its Zipf share of the
// queries exactly (largest remainder), and templates and priorities cycle
// within a table. A round of a few hundred queries then carries the same
// work whatever the seed, and only the order and timing vary.
func mix(s spec, rng *rand.Rand) []query {
	weights := make([]float64, len(s.Parts))
	total := 0.0
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), zipfA)
		total += weights[k]
	}
	counts := make([]int, len(s.Parts))
	left := s.Queries
	for k, w := range weights {
		counts[k] = int(float64(s.Queries) * w / total)
		left -= counts[k]
	}
	for ; left > 0; left-- { // largest remainders first
		best, bestRem := 0, -1.0
		for k, w := range weights {
			rem := float64(s.Queries)*w/total - float64(counts[k])
			if rem > bestRem {
				best, bestRem = k, rem
			}
		}
		counts[best]++
	}
	var qs []query
	for k, n := range counts {
		for i := 0; i < n; i++ {
			q := query{Table: k + 1, Template: workload.QueryTemplate(i % 3)}
			if s.PriorityEvery > 0 {
				q.Priority = (i / 3) % 3
			}
			qs = append(qs, q)
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// genScript materializes the round's requests from the seed.
func genScript(s spec, seed int64) script {
	rng := rand.New(rand.NewSource(seed))
	qs := mix(s, rng)
	if s.Clients > 0 {
		return script{Queries: qs}
	}
	// Poisson arrivals conditioned on the round's count: the arrival times
	// of a Poisson process with rate Lambda that has exactly Queries
	// arrivals in [0, Queries/Lambda) are that many sorted uniform draws.
	horizon := float64(s.Queries) / s.Lambda
	at := make([]float64, len(qs))
	for i := range at {
		at[i] = rng.Float64() * horizon
	}
	sort.Float64s(at)
	var sc script
	dml := dmlStatements(sentinelKey(s.Rows))
	for n := 0; len(sc.Queries) < len(qs); n++ {
		var st step
		end := float64(n+1) * s.Step
		for i := len(sc.Queries); i < len(qs) && at[i] < end; i++ {
			st.Submits = append(st.Submits, qs[i])
		}
		sc.Queries = append(sc.Queries, st.Submits...)
		every := func(k int) bool { return k > 0 && n%k == k-1 }
		if every(s.AbortEvery) {
			st.Ctrls = append(st.Ctrls, ctrl{Kind: ctrlAbort, Pick: rng.Uint32()})
		}
		if every(s.BlockEvery) {
			st.Ctrls = append(st.Ctrls, ctrl{Kind: ctrlBlock, Pick: rng.Uint32()})
		}
		if every(s.PriorityEvery) {
			st.Ctrls = append(st.Ctrls, ctrl{Kind: ctrlPriority, Pick: rng.Uint32(), Priority: rng.Intn(3)})
		}
		if every(s.ExecEvery) {
			st.Exec = dml[(n/s.ExecEvery)%len(dml)]
		}
		sc.Steps = append(sc.Steps, st)
	}
	return sc
}

// pairs lists the distinct (table, template) pairs a script submits, in a
// fixed order: the oracle checks each once and the solo-U table keys on it.
func (sc script) pairs() []query {
	seen := make(map[[2]int]bool)
	var out []query
	for _, q := range sc.Queries {
		k := [2]int{q.Table, int(q.Template)}
		if !seen[k] {
			seen[k] = true
			out = append(out, query{Table: q.Table, Template: q.Template})
		}
	}
	return out
}
