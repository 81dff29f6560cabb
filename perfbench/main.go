package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	work     string // scratch directory for projects, removed at exit
	traceDir string // where traced runs write their spans

	// Companion sizes: how much of each phase runs beside another
	// workload's window.
	paperCycles  int
	ingestRounds int
	dashWindow   time.Duration
}

// metric is one reported figure. Only Value and Unit reach the JSON result;
// n and note go to the human-readable table.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// run accumulates one invocation's operation counts, failures and metrics.
type run struct {
	cfg config
	tr  *tracer // nil while measuring end-to-end figures

	attempted, failed atomic.Int64
	dirs              atomic.Int64 // project directories created

	mu       sync.Mutex
	failures []string
	details  []string
	metrics  map[string]metric
}

// projectDir names a fresh project directory in the run's scratch space.
func (r *run) projectDir(prefix string) string {
	return filepath.Join(r.cfg.work, fmt.Sprintf("%s-%d", prefix, r.dirs.Add(1)))
}

// detail adds a line to the human-readable report only.
func (r *run) detail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.mu.Lock()
		defer r.mu.Unlock()
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// counted marks an error an operation has already been charged for.
type counted struct{ error }

func (c counted) Unwrap() error { return c.error }

// count charges one operation with err and returns err marked as counted.
func (r *run) count(err error) error {
	r.op(err)
	if err != nil {
		return counted{err}
	}
	return nil
}

// settle charges a failed step that no operation has counted yet.
func (r *run) settle(err error) {
	var c counted
	if err != nil && !errors.As(err, &c) {
		r.op(err)
	}
}

// set records a metric. A value that could not be measured is a failed
// check: it reports as 0 and marks the run incorrect.
func (r *run) set(name, unit string, v float64, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.op(fmt.Errorf("metric %s: no samples", name))
		v, note = 0, "no samples"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// setP50 records a series' median in milliseconds.
func (r *run) setP50(name string, s *series, note string) {
	r.set(name, "ms", s.median(), s.n(), note)
}

// p99 returns a series' p99, or the highest percentile its samples
// support, with a note saying which.
func p99(s *series, note string) (float64, string) {
	v, used := s.tail(0.99)
	if used != 0.99 {
		note = fmt.Sprintf("p%.1f: too few samples for p99; %s", used*100, note)
	}
	return v, note
}

// ungated reports a figure a user sees end to end that BENCHMARK.json
// lists as a per-layer metric, because across ten seeds on a shared 2-core
// VM its spread exceeded 0.25, the widest bound an end-to-end metric may
// carry. A traced run reports it as a metric; an untraced run prints it in
// the table only.
func (r *run) ungated(name, unit string, v float64, n int, note string) {
	if r.cfg.trace {
		r.set(name, unit, v, n, note)
		return
	}
	r.detail("%-44s %14.4f %-6s %7d  %s; not gated", name, v, unit, n, note)
}

// budget bounds a phase: either a number of units of work or a length of
// time, counted from when the phase starts. A unit in progress when the
// time runs out completes.
type budget struct {
	units  int
	length time.Duration
}

func window(d time.Duration) budget { return budget{length: d} }

// run calls unit until the budget is spent, charging its errors. A unit
// calls atEnd where its end-of-window measurements belong; atEnd reports
// whether the budget is spent there, which makes that unit the last.
func (b budget) run(r *run, unit func(i int, atEnd func() bool) error) {
	deadline := time.Now().Add(b.length)
	more := func(done int) bool {
		if b.units > 0 {
			return done < b.units
		}
		return time.Now().Before(deadline)
	}
	for i, again := 0, true; again; i++ {
		reached := false
		err := unit(i, func() bool {
			reached, again = true, more(i+1)
			return !again
		})
		r.settle(err)
		if !reached {
			again = more(i + 1)
		}
	}
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper-loop, dashboard or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.paperCycles, cfg.ingestRounds, cfg.dashWindow = paperCompanionCycles, ingestCompanionRounds, dashCompanionWindow
	cfg.trace = trace == 1
	if _, ok := phases[cfg.workload]; !ok || cfg.window <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-loop|dashboard|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, err := execute(cfg, ".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// execute runs one workload from the checkout at root and returns the
// result line. Scratch projects and traces go under root/.bench_build.
func execute(cfg config, root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	// Every project directory a run creates stays until the run ends: on a
	// disk mounted with online discard, deleting files mid-window
	// lengthened the fsync tails the window measures.
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	cfg.traceDir = filepath.Join(base, "trace")

	r := &run{cfg: cfg, metrics: make(map[string]metric)}
	if err := runWorkload(r); err != nil {
		return "", err
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return "", err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return "", err
		}
		fmt.Println("spans written to", path)
	}
	printReport(r, root)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed.Load() == 0, r.attempted.Load(), r.failed.Load(), r.metrics}
	if res.Attempted == 0 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// printReport writes the human-readable table: facts, then every metric
// with its unit and sample count, then the answer checks.
func printReport(r *run, root string) {
	facts := map[string]any{
		"workload":   r.cfg.workload,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.window.Seconds(),
		"trace":      r.cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     gitCommit(root),
		"flush":      flushPolicies,
	}
	fb, _ := json.Marshal(facts)
	fmt.Println("facts", string(fb))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-44s %14s %-6s %7s  %s\n", "metric", "value", "unit", "n", "note")
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-44s %14.4f %-6s %7d  %s\n", n, m.Value, m.Unit, m.n, m.note)
	}
	for _, d := range r.details {
		fmt.Println(d)
	}
	verdict := "pass"
	if r.failed.Load() > 0 {
		verdict = "FAIL"
	}
	fmt.Printf("checks: %s (attempted %d, failed %d)\n", verdict, r.attempted.Load(), r.failed.Load())
	for _, f := range r.failures {
		fmt.Println("  failure:", f)
	}
}

// flushPolicies states how each phase makes its writes durable.
var flushPolicies = map[string]string{
	"paper-loop": "fsync at every commit",
	"dashboard":  "history seeded without fsync; read-only while measured",
	"ingest":     "fsync at every commit (group commit), 1 MiB WAL segments",
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git. A checkout exported without .git reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
