package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/core"
	"mqpi/internal/engine"
	"mqpi/internal/sched"
	"mqpi/internal/service"
)

// layerRound collects a traced round's per-layer timings and counts. The
// benchmark times its own calls into each layer's public functions; nothing
// inside the program is instrumented. Every method is a no-op on a nil
// receiver, which is what an untraced round carries.
type layerRound struct {
	httpSubmitMS, directSubmitMS []float64
	httpPollMS, progressMS       []float64
	svcOverMS, clusterOverMS     []float64
	overKB                       []float64
	mutationMS                   []float64
	advanceMS, advanceVsec       float64

	finished                 int
	costU                    float64
	cacheHits, cacheMisses   float64
	epochs, vnow             float64
	shards                   int
	routed                   []float64
	gcCPU, totalCPU, allocKB float64

	rt []metrics.Sample
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return s.Value.Float64()
}

// begin reads the runtime's counters after a forced collection: the CPU
// classes only advance at collections, and end reads them after the
// collection that measures the live heap.
func (l *layerRound) begin() {
	if l != nil {
		runtime.GC()
		l.rt = readRuntime()
	}
}

func (l *layerRound) end(finished int) {
	if l == nil {
		return
	}
	now := readRuntime()
	d := func(i int) float64 { return sampleValue(now[i]) - sampleValue(l.rt[i]) }
	l.gcCPU, l.totalCPU, l.allocKB = d(0), d(1), d(2)/1024
	l.finished = finished
}

// directSubmit submits through the tier's top-level Go API instead of HTTP:
// Manager.Submit on a single engine, Cluster.Submit on a cluster.
func (l *layerRound) directSubmit(t *tier, req service.SubmitRequest) (view, error) {
	start := time.Now()
	var qv service.QueryView
	var err error
	if t.mgr != nil {
		qv, err = t.mgr.Submit(req)
	} else {
		qv, err = t.cl.Submit(cluster.SubmitRequest{SubmitRequest: req})
	}
	l.directSubmitMS = append(l.directSubmitMS, ms(time.Since(start)))
	return view{ID: qv.ID, Status: qv.Status}, err
}

func (l *layerRound) httpSubmit(d time.Duration) {
	if l != nil {
		l.httpSubmitMS = append(l.httpSubmitMS, ms(d))
	}
}

// shardOf resolves a query ID to the manager holding it and its local ID.
func shardOf(t *tier, id int) (*service.Manager, int) {
	if t.mgr != nil {
		return t.mgr, id
	}
	n := t.cl.Shards()
	return t.cl.Shard((id - 1) % n), (id-1)/n + 1
}

// mutation times a same-value SetPriority on the first running query: an
// owner hand-off plus a publish that changes nothing.
func (l *layerRound) mutation(r *runner) {
	if l == nil {
		return
	}
	cands := r.running()
	if len(cands) == 0 {
		return
	}
	m, local := shardOf(r.t, cands[0])
	start := time.Now()
	if err := m.SetPriority(local, r.priority[cands[0]]); err != nil {
		r.fail("traced priority on %d: %v", cands[0], err)
		return
	}
	l.mutationMS = append(l.mutationMS, ms(time.Since(start)))
}

func (l *layerRound) advance(d time.Duration, vsec float64) {
	if l != nil {
		l.advanceMS += ms(d)
		l.advanceVsec += vsec
	}
}

// httpPoll records the poll's handler time and pairs it with a direct
// Manager.Progress call for the same query.
func (l *layerRound) httpPoll(r *runner, id int) {
	if l == nil {
		return
	}
	l.httpPollMS = append(l.httpPollMS, ms(r.cl.handlerTime))
	m, local := shardOf(r.t, id)
	start := time.Now()
	if _, err := m.Progress(local); err != nil {
		r.fail("traced progress %d: %v", id, err)
		return
	}
	l.progressMS = append(l.progressMS, ms(time.Since(start)))
}

// httpOverview records the overview's size and pairs the HTTP read with
// direct Manager.Overview calls (summed over shards) and, on a cluster, a
// direct Cluster.Overview.
func (l *layerRound) httpOverview(r *runner, bytes int) {
	if l == nil {
		return
	}
	l.overKB = append(l.overKB, float64(bytes)/1024)
	mgrs := []*service.Manager{r.t.mgr}
	if r.t.cl != nil {
		mgrs = mgrs[:0]
		for i := 0; i < r.t.cl.Shards(); i++ {
			mgrs = append(mgrs, r.t.cl.Shard(i))
		}
		start := time.Now()
		if _, err := r.t.cl.Overview(); err != nil {
			r.fail("traced cluster overview: %v", err)
		}
		l.clusterOverMS = append(l.clusterOverMS, ms(time.Since(start)))
	}
	start := time.Now()
	for _, m := range mgrs {
		if _, err := m.Overview(); err != nil {
			r.fail("traced overview: %v", err)
		}
	}
	l.svcOverMS = append(l.svcOverMS, ms(time.Since(start)))
}

// final reads the round's counters from GET /metrics once it has drained.
func (l *layerRound) final(r *runner, costU float64) {
	if l == nil {
		return
	}
	l.costU = costU
	l.vnow = r.now
	pages := []string{"/metrics"}
	if r.t.cl != nil {
		pages = pages[:0]
		for i := 0; i < r.t.cl.Shards(); i++ {
			pages = append(pages, fmt.Sprintf("/shards/%d/metrics", i))
		}
		text, err := r.cl.do("GET", "/metrics", nil, nil)
		if err != nil {
			r.fail("cluster metrics: %v", err)
		}
		for i := 0; i < r.t.cl.Shards(); i++ {
			l.routed = append(l.routed, promValue(text, fmt.Sprintf(`mqpi_cluster_routed_total{shard="%d"}`, i)))
		}
	}
	l.shards = len(pages)
	for _, p := range pages {
		text, err := r.cl.do("GET", p, nil, nil)
		if err != nil {
			r.fail("metrics: %v", err)
			continue
		}
		l.cacheHits += promValue(text, "mqpi_poll_estimate_cache_hits_total")
		l.cacheMisses += promValue(text, "mqpi_poll_estimate_cache_misses_total")
		l.epochs += promValue(text, "mqpi_snapshot_epoch")
	}
}

// promValue returns the value of the exposition line whose series is
// exactly name (0 when absent).
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerProbes are the traced run's measurements outside the rounds.
type layerProbes struct {
	execMUPerS                 float64
	prepareMS, dmlMS           []float64
	tickMS, snapMS, estMS      []float64
	snapQueries                []float64
	probeSubmitMS, probeOverMS []float64
}

// probeEngine times DB.Query, DB.Prepare and DB.Exec on a private replica.
func probeEngine(s spec, seed int64, pairs []query, p *layerProbes) error {
	db, err := buildDB(s, seed)
	if err != nil {
		return err
	}
	var work float64
	var spent time.Duration
	for spent < 300*time.Millisecond {
		for _, q := range pairs {
			start := time.Now()
			_, _, u, err := db.Query(q.SQL())
			spent += time.Since(start)
			if err != nil {
				return err
			}
			work += u
		}
	}
	p.execMUPerS = work / 1e6 / spent.Seconds()
	for i := 0; i < 50; i++ {
		for _, q := range pairs {
			start := time.Now()
			if _, err := db.Prepare(q.SQL()); err != nil {
				return err
			}
			p.prepareMS = append(p.prepareMS, ms(time.Since(start)))
		}
	}
	dml := dmlStatements(sentinelKey(s.Rows))
	for i := 0; i < 60; i++ {
		start := time.Now()
		if _, err := db.Exec(dml[i%len(dml)]); err != nil {
			return err
		}
		p.dmlMS = append(p.dmlMS, ms(time.Since(start)))
	}
	return nil
}

// probeSched replays a round's query stream on a scheduler of its own and
// feeds every snapshot to the workload's estimator: sched.Tick,
// sched.Snapshot and core's Estimates timed alone, without the service.
func probeSched(s spec, seed int64, subs []submitRecord, p *layerProbes) error {
	db, err := buildDB(s, seed)
	if err != nil {
		return err
	}
	cfg := serviceConfig(s).Sched
	srv := sched.New(cfg)
	defer srv.Close()
	est, err := core.NewEstimator(s.Estimator)
	if err != nil {
		return err
	}
	subs = append([]submitRecord(nil), subs...)
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].at < subs[j].at })
	ticks := int(s.Step/quantum + 0.5)
	now := 0.0
	for i, n := 0, 0; i < len(subs) || srv.Busy(); n++ {
		if n == maxDrainSteps {
			return fmt.Errorf("replay still busy after %d steps", n)
		}
		for ; i < len(subs) && subs[i].at <= now; i++ {
			q := subs[i].q
			run, err := db.Prepare(q.SQL())
			if err != nil {
				return err
			}
			run.CollectRows = false
			srv.Submit(srv.NewQuery(q.Template.String(), q.SQL(), q.Priority, run))
		}
		for k := 0; k < ticks; k++ {
			start := time.Now()
			srv.Tick()
			p.tickMS = append(p.tickMS, ms(time.Since(start)))
		}
		now += s.Step
		start := time.Now()
		snap := srv.Snapshot()
		p.snapMS = append(p.snapMS, ms(time.Since(start)))
		p.snapQueries = append(p.snapQueries, float64(len(snap.Running)+len(snap.Queued)+len(snap.Done)))
		in := core.EstimateInput{
			Running: snap.StatesRunning(), Queued: snap.StatesQueued(),
			MPL: snap.MPL, RateC: snap.RateC, Speeds: snap.Speeds(),
		}
		start = time.Now()
		est.Estimates(in, core.EnsembleState{})
		p.estMS = append(p.estMS, ms(time.Since(start)))
	}
	return nil
}

// probeOtherShape stands up the tier shape the workload does not use — a
// one-shard cluster for a single-engine workload, a single manager for a
// cluster workload — and times its submit (and, for the cluster, overview)
// over the script's first queries, with the clock still. It gives every
// workload a figure for the layer its own path skips.
func probeOtherShape(s spec, seed int64, qs []query, p *layerProbes) error {
	if len(qs) > 200 {
		qs = qs[:200]
	}
	if s.Shards > 1 {
		db, err := buildDB(s, seed)
		if err != nil {
			return err
		}
		m := service.New(db, serviceConfig(s))
		defer m.Close()
		for _, q := range qs {
			start := time.Now()
			if _, err := m.Submit(service.SubmitRequest{SQL: q.SQL(), Priority: q.Priority}); err != nil {
				return err
			}
			p.probeSubmitMS = append(p.probeSubmitMS, ms(time.Since(start)))
		}
		return nil
	}
	var dbErr error
	c, err := cluster.New(cluster.Config{Shards: 1, Service: serviceConfig(s), OpenDB: func() *engine.DB {
		db, err := buildDB(s, seed)
		if err != nil {
			dbErr = err
			return engine.Open()
		}
		return db
	}})
	if err != nil {
		return err
	}
	defer c.Close()
	if dbErr != nil {
		return dbErr
	}
	for i, q := range qs {
		start := time.Now()
		if _, err := c.Submit(cluster.SubmitRequest{SubmitRequest: service.SubmitRequest{SQL: q.SQL(), Priority: q.Priority}}); err != nil {
			return err
		}
		p.probeSubmitMS = append(p.probeSubmitMS, ms(time.Since(start)))
		if i%20 == 19 {
			start := time.Now()
			if _, err := c.Overview(); err != nil {
				return err
			}
			p.probeOverMS = append(p.probeOverMS, ms(time.Since(start)))
		}
	}
	return nil
}

// layerMetrics assembles the per-layer table from the traced rounds and the
// probes. The tracing overhead compares the median qps of the untraced
// baseline cycle with that of the traced rounds.
func layerMetrics(s spec, traced []roundResult, p *layerProbes, baseline []roundResult) map[string]metric {
	var all layerRound
	for _, rr := range traced {
		l := rr.layers
		all.httpSubmitMS = append(all.httpSubmitMS, l.httpSubmitMS...)
		all.directSubmitMS = append(all.directSubmitMS, l.directSubmitMS...)
		all.httpPollMS = append(all.httpPollMS, l.httpPollMS...)
		all.progressMS = append(all.progressMS, l.progressMS...)
		all.svcOverMS = append(all.svcOverMS, l.svcOverMS...)
		all.clusterOverMS = append(all.clusterOverMS, l.clusterOverMS...)
		all.overKB = append(all.overKB, l.overKB...)
		all.mutationMS = append(all.mutationMS, l.mutationMS...)
		all.advanceMS += l.advanceMS
		all.advanceVsec += l.advanceVsec
		all.finished += l.finished
		all.costU += l.costU
		all.cacheHits += l.cacheHits
		all.cacheMisses += l.cacheMisses
		all.epochs += l.epochs / float64(l.shards)
		all.vnow += l.vnow
		all.gcCPU += l.gcCPU
		all.totalCPU += l.totalCPU
		all.allocKB += l.allocKB
		if len(all.routed) < len(l.routed) {
			all.routed = make([]float64, len(l.routed))
		}
		for i, n := range l.routed {
			all.routed[i] += n
		}
	}
	qps := endToEnd(traced)["qps"].Value
	out := map[string]metric{
		"engine.exec_mu_per_s":             {p.execMUPerS, "MU/s"},
		"engine.cost_u_per_query":          {all.costU / float64(all.finished), "U"},
		"engine.prepare_ms_p50":            {median(p.prepareMS), "ms"},
		"engine.dml_ms_p50":                {median(p.dmlMS), "ms"},
		"sched.tick_ms_p50":                {median(p.tickMS), "ms"},
		"sched.snapshot_ms_p50":            {median(p.snapMS), "ms"},
		"sched.snapshot_queries_p50":       {median(p.snapQueries), "count"},
		"core.estimates_ms_p50":            {median(p.estMS), "ms"},
		"service.advance_ms_per_vsec":      {all.advanceMS / all.advanceVsec, "ms/s"},
		"service.mutation_ms_p50":          {median(all.mutationMS), "ms"},
		"service.progress_ms_p50":          {median(all.progressMS), "ms"},
		"service.overview_ms_p50":          {median(all.svcOverMS), "ms"},
		"service.estimate_cache_hit_ratio": {all.cacheHits / (all.cacheHits + all.cacheMisses), "ratio"},
		"service.epochs_per_vsec":          {all.epochs / all.vnow, "1/s"},
		"http.poll_ms_p50":                 {median(all.httpPollMS), "ms"},
		"http.submit_ms_p50":               {median(all.httpSubmitMS), "ms"},
		"http.overview_kb":                 {sum(all.overKB) / float64(len(all.overKB)), "KB"},
		"go.gc_cpu_share":                  {all.gcCPU / all.totalCPU, "ratio"},
		"go.alloc_kb_per_query":            {all.allocKB / float64(all.finished), "KB"},
		"trace.qps":                        {qps, "1/s"},
		"trace.overhead":                   {endToEnd(baseline)["qps"].Value/qps - 1, "ratio"},
	}
	if s.Shards > 1 {
		out["service.submit_ms_p50"] = metric{median(p.probeSubmitMS), "ms"}
		out["cluster.submit_ms_p50"] = metric{median(all.directSubmitMS), "ms"}
		out["cluster.overview_ms_p50"] = metric{median(all.clusterOverMS), "ms"}
		out["cluster.shard_max_share"] = metric{slices.Max(all.routed) / sum(all.routed), "ratio"}
	} else {
		out["service.submit_ms_p50"] = metric{median(all.directSubmitMS), "ms"}
		out["cluster.submit_ms_p50"] = metric{median(p.probeSubmitMS), "ms"}
		out["cluster.overview_ms_p50"] = metric{median(p.probeOverMS), "ms"}
		out["cluster.shard_max_share"] = metric{1, "ratio"} // one shard holds every submit
	}
	return out
}
