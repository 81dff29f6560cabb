package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	flor "flordb"
	"flordb/internal/relation"
	"flordb/internal/server"
	"flordb/internal/sqlparse"
)

const (
	dashProject         = "dash"
	dashCommits         = 200  // seeded history: commits ...
	dashLogsPerCommit   = 1000 // ... of this many values each
	dashNames           = 8    // logged in turn as m0..m7
	dashRangeCommits    = 6    // commits a range query spans
	dashWorkers         = 2    // load goroutines, one connection each
	dashInProcessRuns   = 15   // traced in-process executions per class
	dashParseRuns       = 200  // traced sqlparse.Parse calls per class
	dashCompanionWindow = 2 * time.Second
)

// dashboardRate is the open-loop arrival rate: about 30% of the 192 req/s
// that two clients answered on a 2-core Xeon VM when offered 1000 req/s
// of this mix. At half of saturation, queueing made query_p99_ms swing 10x
// between seeds. To recalibrate, set it far above saturation and read the
// answered rate the run prints.
const dashboardRate float64 = 60

// dashClasses are the request classes. Each is an equal fifth of the mix:
// no measured dashboard usage gives other shares, so none is favoured.
var dashClasses = []string{"range", "point", "scan_agg", "dataframe", "asof"}

const (
	dashScanAggSQL = "SELECT value_name, count(*) AS n FROM logs WHERE projid = '" + dashProject + "' GROUP BY value_name"
	dashCountSQL   = "SELECT count(*) AS n FROM logs"
)

func dashRangeSQL(first int) string {
	return fmt.Sprintf("SELECT count(*) AS n FROM logs WHERE tstamp BETWEEN %d AND %d", first, first+dashRangeCommits-1)
}

func dashPointSQL(name int) string {
	return fmt.Sprintf("SELECT count(*) AS n, avg(cast_float(value)) AS m FROM logs WHERE projid = '%s' AND value_name = 'm%d'", dashProject, name)
}

// dashEnv is the served project: its seeded history, the truth computed
// while seeding it, and the API server over it.
type dashEnv struct {
	sess    *flor.Session
	sums    [dashNames]float64 // sum of the values logged under each name
	baseURL string
	client  *http.Client
	stop    func() error
}

func setupDashboard(r *run) (*dashEnv, error) {
	dir := r.projectDir("dashboard")
	env := &dashEnv{}
	sess, err := flor.Open(dir, dashProject, flor.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	sess.SetFilename("dashboard.flow")
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for c := 0; c < dashCommits; c++ {
		for i := 0; i < dashLogsPerCommit; i++ {
			v := rng.Float64()
			env.sums[i%dashNames] += v
			sess.Log(fmt.Sprintf("m%d", i%dashNames), v)
		}
		if err := sess.Commit(""); err != nil {
			sess.Close()
			return nil, err
		}
	}
	if _, err := sess.Compact(); err != nil {
		sess.Close()
		return nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}
	if env.sess, err = flor.Open(dir, dashProject, flor.Options{NoSync: true}); err != nil {
		return nil, err
	}
	if err := env.serve(); err != nil {
		env.sess.Close()
		return nil, err
	}
	return env, nil
}

// serve starts the API server on a free loopback port and waits until it
// answers.
func (env *dashEnv) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- server.New(env.sess, server.Config{}).Serve(ctx, addr) }()
	env.baseURL = "http://" + addr
	env.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     dashWorkers,
		MaxIdleConnsPerHost: dashWorkers,
	}}
	env.stop = func() error {
		cancel()
		err := <-done
		env.client.CloseIdleConnections()
		if cerr := env.sess.Close(); err == nil {
			err = cerr
		}
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := env.client.Get(env.baseURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		select {
		case serr := <-done:
			cancel()
			return fmt.Errorf("server exited: %v", serr)
		default:
		}
		if time.Now().After(deadline) {
			env.stop()
			return fmt.Errorf("server at %s did not answer: %w", addr, err)
		}
	}
}

// dashRequest is one scheduled request and the answer it must get.
type dashRequest struct {
	class string
	path  string
	check func(*dashResponse) error
}

type dashResponse struct {
	Columns  []string `json:"columns"`
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
}

// dashSchedule draws Poisson arrivals at rate per second over d, each of a
// class drawn uniformly.
func dashSchedule(rng *rand.Rand, rate float64, d time.Duration, env *dashEnv) ([]time.Duration, []dashRequest) {
	var due []time.Duration
	var reqs []dashRequest
	for t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); t < d; t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		due = append(due, t)
		reqs = append(reqs, env.request(rng))
	}
	return due, reqs
}

func (env *dashEnv) request(rng *rand.Rand) dashRequest {
	class := dashClasses[rng.Intn(len(dashClasses))]
	perName := float64(dashCommits * dashLogsPerCommit / dashNames)
	sqlPath := func(q string) string { return "/sql?q=" + url.QueryEscape(q) }
	switch class {
	case "range":
		first := 1 + rng.Intn(dashCommits-dashRangeCommits+1)
		return dashRequest{class, sqlPath(dashRangeSQL(first)), func(res *dashResponse) error {
			return expectCell(res, 0, 0, dashRangeCommits*dashLogsPerCommit)
		}}
	case "point":
		name := rng.Intn(dashNames)
		return dashRequest{class, sqlPath(dashPointSQL(name)), func(res *dashResponse) error {
			if err := expectCell(res, 0, 0, perName); err != nil {
				return err
			}
			return expectNear(res, 0, 1, env.sums[name]/perName)
		}}
	case "scan_agg":
		return dashRequest{class, sqlPath(dashScanAggSQL), func(res *dashResponse) error {
			if len(res.Rows) != dashNames {
				return fmt.Errorf("scan_agg: %d groups, want %d", len(res.Rows), dashNames)
			}
			for i := range res.Rows {
				if err := expectCell(res, i, 1, perName); err != nil {
					return err
				}
			}
			return nil
		}}
	case "dataframe":
		name := rng.Intn(dashNames)
		return dashRequest{class, fmt.Sprintf("/dataframe?names=m%d", name), func(res *dashResponse) error {
			if res.RowCount != dashCommits {
				return fmt.Errorf("dataframe: %d rows, want one per commit (%d)", res.RowCount, dashCommits)
			}
			return nil
		}}
	default:
		epoch := 1 + rng.Intn(dashCommits)
		return dashRequest{class, fmt.Sprintf("/sql?as_of=%d&q=%s", epoch, url.QueryEscape(dashCountSQL)), func(res *dashResponse) error {
			return expectCell(res, 0, 0, float64(epoch*dashLogsPerCommit))
		}}
	}
}

func cell(res *dashResponse, row, col int) (float64, error) {
	if len(res.Rows) <= row || len(res.Rows[row]) <= col {
		return 0, fmt.Errorf("result has no cell (%d,%d)", row, col)
	}
	v, ok := res.Rows[row][col].(float64)
	if !ok {
		return 0, fmt.Errorf("cell (%d,%d) = %v is not a number", row, col, res.Rows[row][col])
	}
	return v, nil
}

func expectCell(res *dashResponse, row, col int, want float64) error {
	got, err := cell(res, row, col)
	if err == nil && got != want {
		err = fmt.Errorf("cell (%d,%d) = %v, want %v", row, col, got, want)
	}
	return err
}

func expectNear(res *dashResponse, row, col int, want float64) error {
	got, err := cell(res, row, col)
	if err == nil && math.Abs(got-want) > 1e-9*math.Abs(want) {
		err = fmt.Errorf("cell (%d,%d) = %v, want %v", row, col, got, want)
	}
	return err
}

// errShed marks a request the server refused with 429 or 503.
var errShed = errors.New("refused by admission control")

// fetch sends one request and reads its answer. Checking the answer is
// left to check, outside the timed send.
func (env *dashEnv) fetch(req dashRequest) ([]byte, error) {
	resp, err := env.client.Get(env.baseURL + req.path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, errShed
	default:
		return nil, fmt.Errorf("%s: HTTP %d: %s", req.class, resp.StatusCode, body)
	}
}

// verify decodes a fetched answer and checks it against the seeded truth.
func (req dashRequest) verify(body []byte) error {
	var res dashResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("%s: %w", req.class, err)
	}
	if err := req.check(&res); err != nil {
		return fmt.Errorf("%s %s: %w", req.class, req.path, err)
	}
	return nil
}

// openLoop sends len(due) requests from workers goroutines that take them
// in due order; request i is sent no earlier than start+due[i]. Latency is
// measured from the due time, so a stalled response, which delays every
// request queued behind it, adds its wait to theirs. late is how far past
// its due time each request was sent.
func openLoop(start time.Time, due []time.Duration, workers int, send func(i int)) (fromDue, late []time.Duration) {
	fromDue = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				late[i] = time.Since(at)
				send(i)
				fromDue[i] = time.Since(at)
			}
		}()
	}
	wg.Wait()
	return fromDue, late
}

// dashStats holds the raw samples of one or more dashboard schedules.
type dashStats struct {
	query, late, service   series // from due; send lateness; send to answer
	byClass                map[string]*series
	requests, shed         int
	seconds                float64          // from first due time to last answer
	handlerNs, handlerN    map[string]int64 // per route, from /metrics
	cacheHits, cacheMisses uint64
	heapMB                 float64
	rowVersions            int64
	// Filled only while tracing.
	exec, parseUs, pagesDecoded map[string]*series
	pruned, decoded             int64
}

func newDashStats() *dashStats {
	return &dashStats{byClass: map[string]*series{}, handlerNs: map[string]int64{}, handlerN: map[string]int64{}}
}

// dashboardPhase serves one open-loop schedule of length d. With final
// set, it takes the end-of-window measurements after the schedule, and,
// while tracing, runs each class in process.
func dashboardPhase(r *run, env *dashEnv, st *dashStats, d time.Duration, stream int64, final bool) error {
	rng := rand.New(rand.NewSource(r.cfg.seed*1000 + stream))
	due, reqs := dashSchedule(rng, dashboardRate, d, env)
	before, err := env.routeHistograms()
	if err != nil {
		return err
	}
	hits0, misses0 := env.sess.PlanCacheStats()
	service := make([]time.Duration, len(reqs))
	bodies := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	tr := r.tr
	start := time.Now()
	fromDue, late := openLoop(start, due, dashWorkers, func(i int) {
		sent := time.Now()
		id := tr.begin("dashboard."+reqs[i].class, -1, tr.op())
		bodies[i], errs[i] = env.fetch(reqs[i])
		tr.end(id)
		service[i] = time.Since(sent)
	})
	st.seconds += time.Since(start).Seconds()
	after, err := env.routeHistograms()
	if err != nil {
		return err
	}
	hits, misses := env.sess.PlanCacheStats()
	st.cacheHits += hits - hits0
	st.cacheMisses += misses - misses0
	for route, h := range after {
		st.handlerN[route] += h.Count - before[route].Count
		st.handlerNs[route] += h.Sum - before[route].Sum
	}
	for i, req := range reqs {
		if errs[i] == nil {
			errs[i] = req.verify(bodies[i])
		}
		st.requests++
		st.late.add(ms(late[i]))
		r.op(errs[i])
		if errors.Is(errs[i], errShed) {
			st.shed++
		}
		if errs[i] != nil {
			continue
		}
		st.query.add(ms(fromDue[i]))
		st.service.add(ms(service[i]))
		if st.byClass[req.class] == nil {
			st.byClass[req.class] = &series{}
		}
		st.byClass[req.class].add(ms(fromDue[i]))
	}
	if !final {
		return nil
	}
	st.rowVersions, _ = env.sess.Database().RowVersions()
	st.heapMB = heapLiveMB()
	if tr == nil {
		return nil
	}
	return dashInProcess(r, env, st)
}

type routeHist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum_ns"`
}

// routeHistograms reads the server's per-route handler histograms.
func (env *dashEnv) routeHistograms() (map[string]routeHist, error) {
	resp, err := env.client.Get(env.baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Histograms map[string]routeHist `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	return m.Histograms, nil
}

// dashInProcess runs each class in process at one pinned epoch, counting
// the pages each decodes, and times sqlparse.Parse on the same texts.
func dashInProcess(r *run, env *dashEnv, st *dashStats) error {
	tr := r.tr
	st.exec, st.parseUs, st.pagesDecoded = map[string]*series{}, map[string]*series{}, map[string]*series{}
	view, err := env.sess.Reader()
	if err != nil {
		return err
	}
	defer view.Close()
	texts := map[string]string{
		"range":    dashRangeSQL(1 + dashCommits/2),
		"point":    dashPointSQL(3),
		"scan_agg": dashScanAggSQL,
		"asof":     fmt.Sprintf("%s AS OF %d", dashCountSQL, dashCommits/2),
	}
	for _, c := range dashClasses {
		exec, pages := &series{}, &series{}
		st.exec[c], st.pagesDecoded[c] = exec, pages
		name := "sqlparse.exec." + c
		if c == "dataframe" {
			name = "pivot.dataframe"
		}
		for i := 0; i < dashInProcessRuns; i++ {
			pruned0, decoded0 := relation.ScanStats()
			start := time.Now()
			err := tr.do(name, -1, tr.op(), func() error {
				if c == "dataframe" {
					_, err := view.Dataframe("m3")
					return err
				}
				_, err := view.SQL(texts[c])
				return err
			})
			if err := r.count(err); err != nil {
				return err
			}
			exec.addSince(start)
			pruned1, decoded1 := relation.ScanStats()
			pages.add(float64(decoded1 - decoded0))
			st.pruned += pruned1 - pruned0
			st.decoded += decoded1 - decoded0
		}
		if text, ok := texts[c]; ok {
			ps := &series{}
			st.parseUs[c] = ps
			for i := 0; i < dashParseRuns; i++ {
				start := time.Now()
				if _, err := sqlparse.Parse(text); err != nil {
					return r.count(err)
				}
				ps.add(float64(time.Since(start).Nanoseconds()) / 1e3)
			}
		}
	}
	return nil
}

// dashboardE2E reports the served-query pair.
func (st *dashStats) e2e(r *run, source string, _ bool) {
	r.setP50("query_p50_ms", &st.query, source+"; from due time")
	v, note := p99(&st.query, source+"; from due time")
	r.ungated("query_p99_ms", "ms", v, st.query.n(), note)
	for _, c := range dashClasses {
		if s := st.byClass[c]; s != nil {
			r.detail("dashboard %-9s p50 %8.3f ms  n %d", c, s.median(), s.n())
		}
	}
	r.detail("dashboard offered %.1f req/s, answered %.1f req/s", dashboardRate, float64(st.query.n())/st.seconds)
}

// dashboardLayers reports the serving per-layer metrics from a traced
// dashboard phase.
func (st *dashStats) layers(r *run, source string, queries bool) {
	for _, c := range dashClasses {
		if c != "dataframe" {
			r.setP50("sqlparse.exec_ms."+c, st.exec[c], source)
			r.set("sqlparse.parse_us."+c, "us", st.parseUs[c].median(), st.parseUs[c].n(), source)
		}
		r.set("relation.pages_decoded_per_query."+c, "count", st.pagesDecoded[c].mean(), st.pagesDecoded[c].n(), source)
	}
	r.setP50("pivot.dataframe_ms", st.exec["dataframe"], source)
	r.set("relation.pages_pruned_ratio", "ratio", ratio(float64(st.pruned), float64(st.pruned+st.decoded)), int(st.pruned+st.decoded), source)
	var ns, n int64
	for _, route := range []string{"sql", "dataframe"} {
		ns += st.handlerNs[route]
		n += st.handlerN[route]
		r.set("server.handler_ms."+route, "ms", ratio(float64(st.handlerNs[route])/1e6, float64(st.handlerN[route])), int(st.handlerN[route]), source+"; mean from /metrics")
	}
	r.set("server.outside_handler_ms", "ms", st.service.mean()-ratio(float64(ns)/1e6, float64(n)), st.service.n(), source+"; mean client time minus mean handler time")
	r.set("server.shed_ratio", "ratio", ratio(float64(st.shed), float64(st.requests)), st.requests, source)
	late, used := st.late.tail(0.99)
	r.set("bench.late_ms", "ms", late, st.late.n(), fmt.Sprintf("%s; p%.1f of send time minus due time", source, used*100))
	if queries {
		r.set("sqlparse.plan_cache_hit_ratio", "ratio", ratio(float64(st.cacheHits), float64(st.cacheHits+st.cacheMisses)), int(st.cacheHits+st.cacheMisses), source)
		v, note := p99(&st.query, source+"; from due time")
		r.ungated("query_p99_ms", "ms", v, st.query.n(), note)
	}
}
