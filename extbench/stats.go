package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile before
// it is reported: p99 needs 1,000 samples of its class, p50 needs 20.
const minTailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// and whether the sample supports it (at least minTailSamples beyond it).
func percentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 || float64(n)*(1-q) < minTailSamples-1e-9 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], true
}

// classStats is the latency record of one statement class.
type classStats struct {
	samples   []time.Duration // completed statements
	attempted int
	failed    int // errors and refusals
}

// latencies collects per-class statement timings for one client; the
// clients' records are merged after the timed phase.
type latencies map[string]*classStats

func (l latencies) class(name string) *classStats {
	c := l[name]
	if c == nil {
		c = &classStats{}
		l[name] = c
	}
	return c
}

func (l latencies) merge(o latencies) {
	for name, c := range o {
		m := l.class(name)
		m.samples = append(m.samples, c.samples...)
		m.attempted += c.attempted
		m.failed += c.failed
	}
}

// totals sums attempts and failures over every class.
func (l latencies) totals() (attempted, failed, completed int) {
	for _, c := range l {
		attempted += c.attempted
		failed += c.failed
		completed += len(c.samples)
	}
	return
}

// failRatio is failed-or-refused statements over attempted ones.
func (l latencies) failRatio() float64 {
	a, f, _ := l.totals()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the syntax every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// metrics is a named set of reported values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("bad metric name %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// sorted returns an ascending copy of samples.
func sorted(samples []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
