package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"mqpi/internal/service"
)

// maxDrainSteps bounds the steps a round may take after its last submit
// before it gives up waiting for the live queries to finish.
const maxDrainSteps = 200000

// etaSample is one poll of a running query: at virtual time now the server
// predicted a finish at now+eta.
type etaSample struct {
	id       int
	now, eta float64
}

// roundResult is what one round measured.
type roundResult struct {
	setup     time.Duration // dataset build and server start
	wall      time.Duration // the timed script, drain included
	finished  int
	submitMS  []float64
	pollMS    []float64
	overMS    []float64
	etaErrSum float64
	etaErrN   int
	heapMB    float64 // live heap after a forced collection
	attempted int
	failed    int
	errs      []string // first failures and check violations
	wrong     bool     // a check found a wrong output
	submits   []submitRecord
	layers    *layerRound // traced rounds only
	script    int         // index of the round's script among the run's scripts
}

// submitRecord is one accepted submit, kept for the traced replay.
type submitRecord struct {
	at float64 // virtual submit time
	q  query
}

// runner executes one round of a script against a fresh tier.
type runner struct {
	s    spec
	sc   script
	t    *tier
	cl   *client
	solo map[string]float64 // SQL -> charged U when run alone
	tr   *layerRound        // nil when untraced

	res      roundResult
	now      float64 // virtual clock as of the last advance
	stepN    int
	ids      []int // accepted submits, in submit order
	sqlOf    map[int]string
	status   map[int]string
	priority map[int]int
	blocked  map[int]int // id -> step at which it is unblocked
	aborted  map[int]bool
	finished map[int]bool
	nextQ    int // closed loop: next script query to submit
	etas     []etaSample
}

func (r *runner) fail(format string, args ...any) {
	r.res.failed++
	if len(r.res.errs) < 5 {
		r.res.errs = append(r.res.errs, fmt.Sprintf(format, args...))
	}
}

func (r *runner) wrongf(format string, args ...any) {
	r.res.wrong = true
	if len(r.res.errs) < 5 {
		r.res.errs = append(r.res.errs, "check: "+fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runRound stands up a tier, drives the script through it, and checks the
// outputs. Only the script and the drain are timed; set-up is reported on
// its own and the checks are not timed.
func runRound(s spec, sc script, seed int64, solo map[string]float64, traced bool) (roundResult, error) {
	start := time.Now()
	t, err := startTier(s, seed)
	if err != nil {
		return roundResult{}, fmt.Errorf("set-up: %w", err)
	}
	defer t.close()
	r := newRunner(s, sc, t, solo, traced)
	r.res.setup = time.Since(start)
	if err := r.timed(); err != nil {
		return r.res, err
	}
	r.check()
	return r.res, nil
}

func newRunner(s spec, sc script, t *tier, solo map[string]float64, traced bool) *runner {
	r := &runner{
		s: s, sc: sc, t: t, solo: solo,
		cl:       newClient(t.handler, traced),
		sqlOf:    make(map[int]string),
		status:   make(map[int]string),
		priority: make(map[int]int),
		blocked:  make(map[int]int),
		aborted:  make(map[int]bool),
		finished: make(map[int]bool),
	}
	if traced {
		r.tr = &layerRound{}
		r.res.layers = r.tr
	}
	return r
}

// timed is the measured part of a round: the script, the drain, and the
// live heap left once they are done.
func (r *runner) timed() error {
	// The set-up's garbage (the from-scratch build of the dataset and its
	// snapshot) is collected before the clock starts, so the script is not
	// charged for it.
	runtime.GC()
	r.tr.begin()
	begin := time.Now()
	if err := r.drive(); err != nil {
		return err
	}
	r.res.wall = time.Since(begin)
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	r.res.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	r.tr.end(r.res.finished)
	return nil
}

// drive runs the scripted steps and then drains the tier.
func (r *runner) drive() error {
	if r.s.Clients == 0 {
		r.nextQ = len(r.sc.Queries) // open loop: the steps carry the submits
	}
	for _, st := range r.sc.Steps {
		for _, q := range st.Submits {
			r.submit(q)
		}
		if st.Exec != "" {
			r.exec(st.Exec)
		}
		for _, c := range st.Ctrls {
			r.control(c)
		}
		if err := r.tick(); err != nil {
			return err
		}
	}
	for n := 0; r.nextQ < len(r.sc.Queries) || len(r.live()) > 0; n++ {
		if n == maxDrainSteps {
			return fmt.Errorf("%d queries still live after %d drain steps", len(r.live()), n)
		}
		if r.s.Clients > 0 {
			for r.nextQ < len(r.sc.Queries) && len(r.live()) < r.s.Clients {
				r.submit(r.sc.Queries[r.nextQ])
				r.nextQ++
			}
		} else {
			r.unblockAll()
		}
		if err := r.tick(); err != nil {
			return err
		}
	}
	return nil
}

// tick ends a step: due unblocks, the clock move, the polls and, every
// OverviewEvery steps, an overview read.
func (r *runner) tick() error {
	for _, id := range sortedKeys(r.blocked) {
		if r.blocked[id] <= r.stepN {
			r.unblock(id)
		}
	}
	r.tr.mutation(r)
	r.res.attempted++
	vsec := r.s.Step
	start := time.Now()
	if err := r.t.advance(vsec); err != nil {
		r.fail("advance: %v", err)
		return err // the clock is broken; nothing after it means anything
	}
	r.tr.advance(time.Since(start), vsec)
	r.now += vsec
	for k := 0; k < r.s.PollsPerStep; k++ {
		for _, id := range r.live() {
			r.poll(id)
		}
	}
	if r.stepN%r.s.OverviewEvery == 0 {
		r.overview()
	}
	r.stepN++
	return nil
}

// live lists the submitted queries not yet seen to terminate, in ID order.
func (r *runner) live() []int {
	var out []int
	for _, id := range r.ids {
		if !r.finished[id] && !r.aborted[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// running lists the live queries last seen running (not blocked, not
// queued): the candidates for a control operation.
func (r *runner) running() []int {
	var out []int
	for _, id := range r.live() {
		if _, b := r.blocked[id]; !b && r.status[id] == "running" {
			out = append(out, id)
		}
	}
	return out
}

func (r *runner) submit(q query) {
	r.res.attempted++
	req := service.SubmitRequest{SQL: q.SQL(), Priority: q.Priority, Label: q.Template.String()}
	var v view
	var err error
	var took time.Duration
	if r.tr != nil && len(r.ids)%2 == 1 {
		start := time.Now()
		v, err = r.tr.directSubmit(r.t, req)
		took = time.Since(start)
	} else {
		_, err = r.cl.do("POST", "/queries", req, &v)
		took = r.cl.took
		r.tr.httpSubmit(r.cl.handlerTime)
	}
	r.res.submitMS = append(r.res.submitMS, ms(took))
	if err != nil {
		r.fail("submit: %v", err)
		return
	}
	r.ids = append(r.ids, v.ID)
	r.sqlOf[v.ID] = req.SQL
	r.status[v.ID] = v.Status
	r.priority[v.ID] = q.Priority
	r.res.submits = append(r.res.submits, submitRecord{at: r.now, q: q})
}

func (r *runner) exec(sql string) {
	r.res.attempted++
	if _, err := r.cl.do("POST", "/exec", map[string]string{"sql": sql}, nil); err != nil {
		r.fail("exec: %v", err)
	}
}

func (r *runner) control(c ctrl) {
	cands := r.running()
	if len(cands) == 0 {
		return
	}
	id := cands[int(c.Pick%uint32(len(cands)))]
	path := "/queries/" + strconv.Itoa(id)
	r.res.attempted++
	var err error
	switch c.Kind {
	case ctrlAbort:
		if _, err = r.cl.do("POST", path+"/abort", nil, nil); err == nil {
			r.aborted[id] = true
			r.status[id] = "aborted"
		}
	case ctrlBlock:
		if _, err = r.cl.do("POST", path+"/block", nil, nil); err == nil {
			r.blocked[id] = r.stepN + blockFor
			r.status[id] = "blocked"
		}
	case ctrlPriority:
		if _, err = r.cl.do("POST", path+"/priority", map[string]int{"priority": c.Priority}, nil); err == nil {
			r.priority[id] = c.Priority
		}
	}
	if err != nil {
		r.fail("control %d on %d: %v", c.Kind, id, err)
	}
}

func (r *runner) unblock(id int) {
	r.res.attempted++
	delete(r.blocked, id)
	if _, err := r.cl.do("POST", "/queries/"+strconv.Itoa(id)+"/unblock", nil, nil); err != nil {
		r.fail("unblock %d: %v", id, err)
	}
}

func (r *runner) unblockAll() {
	for _, id := range sortedKeys(r.blocked) {
		r.unblock(id)
	}
}

func (r *runner) poll(id int) {
	r.res.attempted++
	var v view
	_, err := r.cl.do("GET", "/queries/"+strconv.Itoa(id), nil, &v)
	r.res.pollMS = append(r.res.pollMS, ms(r.cl.took))
	if err != nil {
		r.fail("poll %d: %v", id, err)
		return
	}
	r.tr.httpPoll(r, id)
	r.status[id] = v.Status
	switch v.Status {
	case "running":
		if v.MultiETA == nil || *v.MultiETA < 0 || v.Fraction < 0 || v.Fraction > 1 { // null: not finite
			r.wrongf("poll of running query %d: multi_query_eta %v, fraction %g", id, fmtETA(v.MultiETA), v.Fraction)
			return
		}
		r.etas = append(r.etas, etaSample{id: id, now: v.Now, eta: *v.MultiETA})
	case "finished":
		r.finished[id] = true
		r.res.finished++
	case "blocked", "queued":
	default:
		r.wrongf("poll of live query %d: status %q", id, v.Status)
		r.aborted[id] = true // stop polling it; the ledger check reports it
	}
}

func fmtETA(p *float64) string {
	if p == nil {
		return "null"
	}
	return strconv.FormatFloat(*p, 'g', -1, 64)
}

func (r *runner) overview() {
	r.res.attempted++
	var ov overview
	body, err := r.cl.do("GET", "/queries", nil, &ov)
	r.res.overMS = append(r.res.overMS, ms(r.cl.took))
	if err != nil {
		r.fail("overview: %v", err)
		return
	}
	r.tr.httpOverview(r, len(body))
}

// check compares the drained tier's final state with the benchmark's own
// ledger and with independent computations. It is not timed.
func (r *runner) check() {
	var ov overview
	if _, err := r.cl.do("GET", "/queries", nil, &ov); err != nil {
		r.wrongf("final overview: %v", err)
		return
	}
	if n := len(ov.Running) + len(ov.Queued) + len(ov.Scheduled); n != 0 {
		r.wrongf("%d queries still in the system after the drain", n)
	}
	// Ledger: every submit ended as finished or aborted, none lost.
	if len(r.ids) != len(r.finished)+len(r.aborted) {
		r.wrongf("ledger: %d submitted != %d finished + %d aborted", len(r.ids), len(r.finished), len(r.aborted))
	}
	finishAt := make(map[int]float64, len(ov.Finished))
	seen := make(map[int]bool, len(ov.Finished))
	var cost float64
	for _, v := range ov.Finished {
		seen[v.ID] = true
		switch {
		case v.Status == "finished" && r.finished[v.ID]:
			finishAt[v.ID] = v.FinishTime
			cost += v.Cost
			if want, ok := r.solo[v.SQL]; !ok || v.Done != want {
				r.wrongf("query %d: done_u %g, charged U alone %g", v.ID, v.Done, want)
			}
			if v.SQL != r.sqlOf[v.ID] {
				r.wrongf("query %d: SQL differs from the one submitted", v.ID)
			}
		case v.Status == "aborted" && r.aborted[v.ID]:
		default:
			r.wrongf("query %d: final status %q disagrees with the ledger", v.ID, v.Status)
		}
	}
	if len(ov.Finished) != len(r.ids) {
		r.wrongf("overview lists %d terminated queries, ledger has %d submits", len(ov.Finished), len(r.ids))
	}
	for _, id := range r.ids {
		if !seen[id] {
			r.wrongf("query %d missing from the overview", id)
		}
	}
	if r.t.cl != nil {
		r.checkShards()
	}
	for _, e := range r.etas {
		if fin, ok := finishAt[e.id]; ok && fin > e.now {
			r.res.etaErrSum += math.Abs(e.now+e.eta-fin) / (fin - e.now)
			r.res.etaErrN++
		}
	}
	r.tr.final(r, cost)
}

// checkShards verifies that every cluster-global ID decodes to the shard
// that holds the query: the shard's own API, asked for the decoded local ID,
// must return the query the benchmark submitted under the global ID.
func (r *runner) checkShards() {
	n := r.t.cl.Shards()
	for _, gid := range r.ids {
		shard, local := (gid-1)%n, (gid-1)/n+1
		var v view
		if _, err := r.cl.do("GET", fmt.Sprintf("/shards/%d/queries/%d", shard, local), nil, &v); err != nil {
			r.wrongf("query %d: shard %d local %d: %v", gid, shard, local, err)
			continue
		}
		if v.SQL != r.sqlOf[gid] || (v.Status == "finished") != r.finished[gid] {
			r.wrongf("query %d: shard %d local %d holds another query", gid, shard, local)
		}
	}
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
