package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func seriesOf(xs ...float64) *series {
	s := &series{}
	for _, x := range xs {
		s.add(x)
	}
	return s
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := &series{}
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 0.999: 100, 0: 1, 1: 100} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := seriesOf(3, 1, 2).median(); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, .99) = %d, want 10", got)
	}
	if got := beyond(999, 0.99); got != 9 {
		t.Errorf("beyond(999, .99) = %d, want 9", got)
	}
	big := &series{}
	for i := 1; i <= 1000; i++ {
		big.add(float64(i))
	}
	if v, used := big.tail(0.99); used != 0.99 || v != 990 {
		t.Errorf("1000 samples: tail = p%g %g, want p99 990", used*100, v)
	}
	small := &series{}
	for i := 1; i <= 500; i++ {
		small.add(float64(i))
	}
	v, used := small.tail(0.99)
	if used != 0.98 || v != 490 || beyond(500, used) < minBeyond {
		t.Errorf("500 samples: tail = p%g %g, want p98 490", used*100, v)
	}
}

func TestRatios(t *testing.T) {
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %g, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %g", got)
	}
}

// A stalled response delays the requests queued behind it, and their
// latency, measured from their due times, includes the wait.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	fromDue, late := openLoop(time.Now(), due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if fromDue[0] < stall {
		t.Errorf("stalled request latency %v, want at least %v", fromDue[0], stall)
	}
	for i := 1; i < len(due); i++ {
		if want := stall - due[i]; fromDue[i] < want || late[i] < want {
			t.Errorf("request %d: latency %v, late %v, want both at least %v", i, fromDue[i], late[i], want)
		}
	}
}

func TestOpenLoopSendsNoEarlierThanDue(t *testing.T) {
	due := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond}
	start := time.Now()
	sent := make([]time.Duration, len(due))
	openLoop(start, due, 2, func(i int) { sent[i] = time.Since(start) })
	for i := range due {
		if sent[i] < due[i] {
			t.Errorf("request %d sent at %v, before its due time %v", i, sent[i], due[i])
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

// Each workload, run briefly with small companions, passes its answer
// checks and reports exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dashboard history")
	}
	e2e, layers := benchmarkNames(t)
	for _, w := range []string{"paper-loop", "ingest", "dashboard"} {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: w, seed: 3, window: 1500 * time.Millisecond, trace: trace,
				paperCycles: slices, ingestRounds: slices, dashWindow: 300 * time.Millisecond,
			}
			line, err := execute(cfg, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s trace=%v: result %q: %v", w, trace, line, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			want := e2e
			if trace {
				want = layers
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w, trace, got, want)
			}
		}
	}
}
