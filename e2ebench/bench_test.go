package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mqpi/internal/engine/types"
	"mqpi/internal/workload"
)

// small shrinks a workload's round to a few dozen queries for tests.
func small(t *testing.T, name string, queries int) spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Queries = queries
	return s
}

func TestScriptDeterministic(t *testing.T) {
	for _, s := range specs {
		a, b := genScript(s, 7), genScript(s, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different scripts", s.Name)
		}
		if len(a.Queries) != s.Queries {
			t.Errorf("%s: script has %d queries, want %d", s.Name, len(a.Queries), s.Queries)
		}
		if reflect.DeepEqual(a, genScript(s, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", s.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestOracleAgreesWithEngine(t *testing.T) {
	s := small(t, "churn", 10)
	db, err := buildDB(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []query
	for i := range s.Parts {
		for tpl := 0; tpl < 3; tpl++ {
			pairs = append(pairs, query{Table: i + 1, Template: workload.QueryTemplate(tpl)})
		}
	}
	solo, err := runOracle(db, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != len(pairs) {
		t.Fatalf("solo U for %d queries, want %d", len(solo), len(pairs))
	}
}

// A lineitem row written to the heap behind the index's back is seen by the
// plain-Go scan but not by the engine's index probe: the engine's answer is
// then wrong, and the oracle must say so.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	s := small(t, "churn", 10)
	db, err := buildDB(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := query{Table: 1, Template: workload.TemplateRetail}
	rows, _, _, err := engineAnswer(db, q)
	if err != nil || len(rows) == 0 {
		t.Fatalf("retail query: %d rows, err %v", len(rows), err)
	}
	line, err := db.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// A huge price lifts the part's average selling price above its retail
	// price, so the part drops out of the true answer.
	row := types.Row{types.NewInt(int64(rows[0][0])), types.NewInt(1), types.NewFloat(1e12), types.NewFloat(0)}
	if _, err := line.Rel.Insert(row); err != nil {
		t.Fatal(err)
	}
	_, err = runOracle(db, []query{q})
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("oracle accepted a wrong answer (err %v)", err)
	}
}

// roundFor drives one round of a small churn script and returns its runner
// before the checks run, so a test can plant a fault first.
func roundFor(t *testing.T, solo map[string]float64) *runner {
	t.Helper()
	s := small(t, "churn", 60)
	sc := genScript(s, 5)
	if solo == nil {
		db, err := buildDB(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		solo, err = runOracle(db, sc.pairs())
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := startTier(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.close)
	r := newRunner(s, sc, tr, solo, false)
	if err := r.timed(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCleanRoundPassesChecks(t *testing.T) {
	r := roundFor(t, nil)
	r.check()
	if r.res.wrong || r.res.failed > 0 {
		t.Fatalf("clean round flagged: %v", r.res.errs)
	}
	if len(r.aborted) == 0 || r.res.finished == 0 {
		t.Fatalf("round exercised too little: %d finished, %d aborted", r.res.finished, len(r.aborted))
	}
}

func TestCheckCatchesWrongDoneU(t *testing.T) {
	s := small(t, "churn", 60)
	sc := genScript(s, 5)
	db, err := buildDB(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := runOracle(db, sc.pairs())
	if err != nil {
		t.Fatal(err)
	}
	solo[sc.Queries[0].SQL()]++ // one U off
	r := roundFor(t, solo)
	r.check()
	if !r.res.wrong || !strings.Contains(strings.Join(r.res.errs, "\n"), "done_u") {
		t.Fatalf("wrong done_u not caught: %v", r.res.errs)
	}
}

func TestCheckCatchesLostQuery(t *testing.T) {
	r := roundFor(t, nil)
	// The benchmark believes it submitted a query the tier never reports.
	lost := r.ids[len(r.ids)-1] + 1000
	r.ids = append(r.ids, lost)
	r.finished[lost] = true
	r.check()
	if !r.res.wrong || !strings.Contains(strings.Join(r.res.errs, "\n"), "missing") {
		t.Fatalf("lost query not caught: %v", r.res.errs)
	}
}

func TestCheckCatchesUnbalancedLedger(t *testing.T) {
	r := roundFor(t, nil)
	delete(r.finished, r.ids[0]) // a finish the ledger never recorded
	r.check()
	if !r.res.wrong || !strings.Contains(strings.Join(r.res.errs, "\n"), "ledger") {
		t.Fatalf("unbalanced ledger not caught: %v", r.res.errs)
	}
}

func TestTallyCatchesDifferingETA(t *testing.T) {
	tl := newTally("churn")
	for _, rr := range []roundResult{
		{script: 0, etaErrN: 40, etaErrSum: 12.5},
		{script: 1, etaErrN: 38, etaErrSum: 9},
		{script: 0, etaErrN: 40, etaErrSum: 12.5},
	} {
		tl.count(rr)
		tl.judge(rr)
	}
	if !tl.res.Correct {
		t.Fatal("repeated ETA samples flagged")
	}
	// A repeat of script 1 whose estimates came out differently.
	rr := roundResult{script: 1, etaErrN: 38, etaErrSum: 9.25}
	tl.count(rr)
	tl.judge(rr)
	if tl.res.Correct {
		t.Fatal("differing ETA samples of one script not caught")
	}
}

// TestSmoke runs every workload end to end at a small size, traced and
// untraced, and checks that every metric is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full datasets")
	}
	for _, base := range specs {
		s := small(t, base.Name, 24)
		for _, traced := range []bool{false, true} {
			res, err := run(s, 2, time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", s.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := 9
			if traced {
				want = 25
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.Name, traced, len(res.Metrics), want)
			}
		}
	}
}
