package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mqpi/internal/cluster"
	"mqpi/internal/engine"
	"mqpi/internal/engine/types"
	"mqpi/internal/load"
	"mqpi/internal/sched"
	"mqpi/internal/service"
	"mqpi/internal/workload"
)

// buildDB builds one replica of the workload's dataset: lineitem, the part
// tables, and one sentinel lineitem row under sentinelKey (see there). The
// same seed always gives the same database. The lineitem base comes from the
// process-wide dataset cache, so only the first replica of a process pays
// for generating it.
func buildDB(s spec, seed int64) (*engine.DB, error) {
	return buildDBFrom(workload.SharedCache(), s, seed)
}

// buildDBFrom is buildDB over the given dataset cache.
func buildDBFrom(c *workload.DatasetCache, s spec, seed int64) (*engine.DB, error) {
	ds, err := c.Hydrate(workload.DataConfig{LineitemRows: s.Rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	for i, n := range s.Parts {
		if err := ds.CreatePartTable(i+1, n); err != nil {
			return nil, err
		}
	}
	row := types.Row{types.NewInt(sentinelKey(s.Rows)), types.NewInt(1), types.NewFloat(1000), types.NewFloat(0)}
	if err := ds.DB.Catalog().Insert("lineitem", row); err != nil {
		return nil, err
	}
	return ds.DB, nil
}

func serviceConfig(s spec) service.Config {
	return service.Config{
		// One execute-phase worker: the tick is serial, so wall time does
		// not depend on how busy the host's other cores are.
		Sched:     sched.Config{RateC: s.RateC, MPL: s.MPL, Quantum: quantum, Weights: s.Weights, Workers: 1},
		TickEvery: -1, // the benchmark moves the clock itself
		Estimator: s.Estimator,
	}
}

// tier is a serving tier stood up in process: either one service.Manager
// behind service.NewHandler, or a cluster behind cluster.NewHandler.
type tier struct {
	mgr     *service.Manager // single engine
	cl      *cluster.Cluster // sharded
	handler http.Handler
}

// startTier builds the dataset from scratch, as a server process does on
// start, through a dataset cache of its own: the first (or only) shard
// generates lineitem, indexes and analyzes it, and a second shard hydrates
// from that build, as the shards of one mqpi-serve process do.
func startTier(s spec, seed int64) (*tier, error) {
	cache := workload.NewDatasetCache()
	if s.Shards <= 1 {
		db, err := buildDBFrom(cache, s, seed)
		if err != nil {
			return nil, err
		}
		m := service.New(db, serviceConfig(s))
		return &tier{mgr: m, handler: service.NewHandler(m)}, nil
	}
	var dbErr error
	c, err := cluster.New(cluster.Config{
		Shards:  s.Shards,
		Routing: s.Routing,
		Service: serviceConfig(s),
		OpenDB: func() *engine.DB {
			db, err := buildDBFrom(cache, s, seed)
			if err != nil {
				dbErr = err
				return engine.Open()
			}
			return db
		},
	})
	if err != nil {
		return nil, err
	}
	if dbErr != nil {
		c.Close()
		return nil, dbErr
	}
	return &tier{cl: c, handler: cluster.NewHandler(c)}, nil
}

func (t *tier) close() {
	if t.mgr != nil {
		t.mgr.Close()
	} else {
		t.cl.Close()
	}
}

// advance moves virtual time directly, not through POST /advance, whose
// reply is the whole overview as indented JSON (see README.md).
func (t *tier) advance(vsec float64) error {
	if t.mgr != nil {
		return t.mgr.Advance(vsec)
	}
	return t.cl.Advance(vsec)
}

// client drives the tier's HTTP handler in process, without sockets. took
// is how long the last request ran, from sending it to having read the whole
// reply: what a client waits for, without the benchmark's own encoding of
// the request and decoding of the reply. With a timed handler, handlerTime
// is how long the handler itself ran.
type client struct {
	c           *http.Client
	base        string
	took        time.Duration
	handlerTime time.Duration
}

// timedHandler records the duration of the last ServeHTTP call.
type timedHandler struct {
	h    http.Handler
	last *time.Duration
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	*t.last = time.Since(start)
}

func newClient(h http.Handler, timed bool) *client {
	cl := &client{}
	if timed {
		h = timedHandler{h: h, last: &cl.handlerTime}
	}
	tgt := load.NewHandlerTarget(h)
	cl.c, cl.base = tgt.Client, tgt.BaseURL
	return cl
}

// do sends one request and decodes a 2xx JSON reply into out (when non-nil).
// It returns the body. Any other status is an error carrying the body.
func (cl *client) do(method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	data, status, err := cl.send(req)
	cl.took = time.Since(start)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return data, fmt.Errorf("%s %s: %d %s", method, path, status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return data, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return data, nil
}

// send runs the request and reads the whole reply.
func (cl *client) send(req *http.Request) ([]byte, int, error) {
	resp, err := cl.c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// view is the part of a query view the benchmark reads. Pointers tell a
// JSON null (a non-finite ETA) from a number.
type view struct {
	ID         int      `json:"id"`
	SQL        string   `json:"sql"`
	Status     string   `json:"status"`
	Now        float64  `json:"now"`
	FinishTime float64  `json:"finish_time"`
	Done       float64  `json:"done_u"`
	Cost       float64  `json:"cost_u"`
	Fraction   float64  `json:"fraction"`
	MultiETA   *float64 `json:"multi_query_eta"`
}

// overview is the part of GET /queries the benchmark reads; the service
// and cluster overviews share these fields.
type overview struct {
	Running   []view `json:"running"`
	Queued    []view `json:"queued"`
	Scheduled []view `json:"scheduled"`
	Finished  []view `json:"finished"`
}
