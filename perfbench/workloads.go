package main

import (
	"fmt"
	"time"
)

// A workload's own phase gets the measured window. Every run must report
// every end-to-end metric of BENCHMARK.json, so the metric families a
// workload does not load come from fixed-size companion phases. The window is cut into
// slices, each followed by its share of every companion, so that all
// phases sample the whole run rather than one stretch of a noisy machine.
// A traced run measures its own phase for half the window untraced and
// half traced (the difference is the tracing overhead), then runs every
// other phase traced, so each per-layer metric is measured on every
// workload.
const slices = 5

// stats is what one phase measured.
type stats interface {
	// e2e and layers report the phase's end-to-end and per-layer metrics;
	// queries says whether the phase is the run's source of query metrics.
	e2e(r *run, source string, queries bool)
	layers(r *run, source string, queries bool)
	// end returns the live heap and the row versions held at the end of
	// the phase's window.
	end() (heapMB float64, rowVersions int64)
	// mainOp is the operation the tracing overhead is measured on.
	mainOp() (*series, string)
}

func (st *paperStats) end() (float64, int64)  { return st.heapMB, st.rowVersions }
func (st *ingestStats) end() (float64, int64) { return st.heapMB, st.rowVersions }
func (st *dashStats) end() (float64, int64)   { return st.heapMB, st.rowVersions }

func (st *paperStats) mainOp() (*series, string)  { return &st.record, "record" }
func (st *ingestStats) mainOp() (*series, string) { return &st.commit, "commit" }
func (st *dashStats) mainOp() (*series, string)   { return &st.query, "query" }

// phase is one of the three loads. run adds to st; with final set it takes
// the end-of-window measurements.
type phase struct {
	stats     func() stats
	run       func(r *run, e *envs, st stats, b budget, final bool) error
	companion func(c config) budget // the phase's size beside another workload
}

var phases = map[string]phase{
	"paper-loop": {
		stats: func() stats { return &paperStats{} },
		run: func(r *run, e *envs, st stats, b budget, final bool) error {
			paperPhase(r, e.paper, st.(*paperStats), b, final)
			return nil
		},
		companion: func(c config) budget { return budget{units: c.paperCycles} },
	},
	"ingest": {
		stats: func() stats { return &ingestStats{} },
		run: func(r *run, e *envs, st stats, b budget, final bool) error {
			ingestPhase(r, e.ingest, st.(*ingestStats), b, final)
			return nil
		},
		companion: func(c config) budget { return budget{units: c.ingestRounds} },
	},
	"dashboard": {
		stats: func() stats { return newDashStats() },
		run: func(r *run, e *envs, st stats, b budget, final bool) error {
			ds := st.(*dashStats)
			stream := int64(ds.requests) // a fresh arrival schedule per call
			if e.dash != nil {
				return dashboardPhase(r, e.dash, ds, b.length, stream, final)
			}
			env, err := setupDashboard(r)
			if err != nil {
				return err
			}
			err = dashboardPhase(r, env, ds, b.length, stream, final)
			if serr := env.stop(); err == nil {
				err = serr
			}
			return err
		},
		companion: func(c config) budget { return window(c.dashWindow) },
	},
}

// phaseOrder fixes the order companions run in. Untraced runs need no
// dashboard companion: outside the dashboard workload, query_p50_ms comes
// from the ingest reader.
var phaseOrder = []string{"paper-loop", "ingest", "dashboard"}

// envs holds everything a run builds before it measures.
type envs struct {
	paper  *paperEnv
	ingest *ingestEnv
	dash   *dashEnv // built in set-up only for the dashboard workload
}

// stopDash releases the served history.
func (e *envs) stopDash() error {
	if e.dash == nil {
		return nil
	}
	err := e.dash.stop()
	e.dash = nil
	return err
}

// setup builds the phases' inputs setupReps times (once when tracing),
// keeping the last build, and reports the median as setup_s.
func setup(r *run) (*envs, error) {
	reps := setupReps
	if r.cfg.trace {
		reps = 1
	}
	var e *envs
	var times series
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			if err := e.stopDash(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		ing, err := setupIngest(r)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		e = &envs{paper: setupPaper(r.cfg.seed), ingest: ing}
		if r.cfg.workload == "dashboard" {
			if e.dash, err = setupDashboard(r); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		times.add(time.Since(start).Seconds())
	}
	if !r.cfg.trace {
		r.set("setup_s", "s", times.median(), times.n(), fmt.Sprintf("median of %d set-ups", reps))
	}
	return e, nil
}

// runWorkload runs the configured workload's phase for the window and its
// companions, then reports.
func runWorkload(r *run) error {
	e, err := setup(r)
	if err != nil {
		return err
	}
	defer e.stopDash()
	main := r.cfg.workload
	st := map[string]stats{}
	for _, name := range phaseOrder {
		st[name] = phases[name].stats()
	}
	// The query metrics come from the workload's own phase when it serves
	// queries, and from the ingest reader otherwise.
	queries := func(name string) bool {
		if main == "paper-loop" {
			return name == "ingest"
		}
		return name == main
	}
	source := func(name string) string {
		if name == main {
			return name + " window"
		}
		return name + " companion"
	}
	if r.cfg.trace {
		return runTraced(r, e, st, queries, source)
	}

	for s := 0; s < slices; s++ {
		final := s == slices-1
		if err := phases[main].run(r, e, st[main], window(r.cfg.window/slices), final); err != nil {
			return err
		}
		for _, name := range phaseOrder {
			if name == main || name == "dashboard" {
				continue
			}
			b := phases[name].companion(r.cfg)
			b.units = max(1, b.units/slices)
			if err := phases[name].run(r, e, st[name], b, false); err != nil {
				return err
			}
		}
	}
	for _, name := range phaseOrder {
		if name == main || name != "dashboard" {
			st[name].e2e(r, source(name), queries(name))
		}
	}
	heapMB, _ := st[main].end()
	r.set("heap_live_mb", "MB", heapMB, 1, source(main)+"; after a forced GC at its end")
	reportErrors(r)
	return nil
}

// reportErrors reports the share of operations that failed, were refused
// or failed a check. A clean run reads 0, which no relative bound can
// gate, so it is an ungated figure.
func reportErrors(r *run) {
	attempted := r.attempted.Load()
	r.ungated("error_ratio", "ratio", ratio(float64(r.failed.Load()), float64(attempted)), int(attempted), "failed / attempted")
}

// runTraced measures the workload's own phase untraced and then traced,
// each for half the window, then runs every other phase traced.
func runTraced(r *run, e *envs, st map[string]stats, queries func(string) bool, source func(string) string) error {
	main := r.cfg.workload
	base := phases[main].stats()
	if err := phases[main].run(r, e, base, window(r.cfg.window/2), false); err != nil {
		return err
	}
	r.tr = newTracer()
	if err := phases[main].run(r, e, st[main], window(r.cfg.window/2), true); err != nil {
		return err
	}
	if err := e.stopDash(); err != nil {
		return err
	}
	for _, name := range phaseOrder {
		if name != main {
			if err := phases[name].run(r, e, st[name], phases[name].companion(r.cfg), true); err != nil {
				return err
			}
		}
		st[name].layers(r, source(name), queries(name))
	}
	traced, op := st[main].mainOp()
	untraced, _ := base.mainOp()
	_, rowVersions := st[main].end()
	r.set("relation.row_versions", "count", float64(rowVersions), 1, source(main)+"; at its end")
	r.set("bench.trace_overhead_pct", "%", 100*(traced.median()/untraced.median()-1), traced.n(),
		fmt.Sprintf("%s p50 traced %.4f ms vs untraced %.4f ms", op, traced.median(), untraced.median()))
	reportErrors(r)
	return nil
}
