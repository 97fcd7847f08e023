package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	return s
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p50    bool
		p99    bool
		p99Val float64
	}{
		{0, false, false, 0},
		{19, false, false, 0},
		{20, true, false, 0},
		{999, true, false, 0},
		{1000, true, true, 990},
		{2000, true, true, 1980},
	} {
		_, has50 := percentile(durations(tc.n), 0.50)
		v99, has99 := percentile(durations(tc.n), 0.99)
		if has50 != tc.p50 || has99 != tc.p99 {
			t.Errorf("n=%d: p50 reported %v (want %v), p99 reported %v (want %v)", tc.n, has50, tc.p50, has99, tc.p99)
		}
		if has99 && ms(v99) != tc.p99Val {
			t.Errorf("n=%d: p99 = %v ms, want %v", tc.n, ms(v99), tc.p99Val)
		}
	}
}

func TestFailuresCountInFailRatio(t *testing.T) {
	l := latencies{}
	c := l.class(classWrite)
	c.attempted, c.failed, c.samples = 10, 2, durations(8)
	r := l.class(classLookup)
	r.attempted, r.failed, r.samples = 10, 0, durations(10)
	a, f, done := l.totals()
	if a != 20 || f != 2 || done != 18 {
		t.Fatalf("totals = %d attempted, %d failed, %d completed; want 20, 2, 18", a, f, done)
	}
	if got := l.failRatio(); got != 0.1 {
		t.Fatalf("fail ratio = %v, want 0.1", got)
	}
	// Throughput counts completed statements only.
	p := &phase{lat: l, elapsed: time.Second}
	if got := p.opsPerSecond(); got != 18 {
		t.Fatalf("ops/s = %v, want 18", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameNames compares a reported metric set with a spec list, unit by unit.
func sameNames(t *testing.T, what string, got metrics, want []struct{ Name, Unit, Better string }) {
	t.Helper()
	var missing, extra []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			missing = append(missing, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
	for name := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %s", what, name, metricName)
		}
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: missing from the program %v, missing from BENCHMARK.json %v", what, missing, extra)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}

	// An untraced run with enough samples for every percentile.
	lat := latencies{}
	lat.class(classSearch).samples = durations(1000)
	e2e := metrics{}
	endToEnd(e2e, []float64{1, 2, 3}, &phase{lat: lat, elapsed: time.Second}, classSearch, 1, 10, 1)
	sameNames(t, "end_to_end", e2e, spec.EndToEnd)

	// A traced run reports every per-layer name even where a layer did
	// no work.
	layers := metrics{}
	layerMetrics(layers, &phase{lat: latencies{}, spans: spanAggs{}}, spanAggs{}, setupTimes{}, 0, 1)
	sameNames(t, "per_layer", layers, spec.PerLayer)
}
