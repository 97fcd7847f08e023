// Command extbench is the extdb benchmark: it drives one workload against
// the engine from a closed loop of two client sessions and prints every
// metric by name, with its unit, as the last line of standard output.
//
//	extbench --workload text-search --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run, whose
// spans come from wrappers around the engine's public seams (see
// trace.go). README.md explains the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cartridge/text"
	"repro/internal/engine"
	"repro/internal/storage"
)

// clients is the closed loop's size: two sessions, each sending its next
// statement as soon as the previous one returns, with no think time.
const clients = 2

// setupRepeats is how many times an untraced run builds the database;
// setup_s is the median. The last build is the one the timed phase uses.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
	dir      string
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("extbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "text-search, text-churn or oltp-cold")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 30, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.StringVar(&c.spans, "spans", "", "traced runs: write every span as JSON lines to this file")
	fs.StringVar(&c.dir, "dir", filepath.Join(".bench_build", "extbench"), "directory for the database files")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 || trace < 0 || trace > 1 {
		return c, errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "extbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "extbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.record {
		fmt.Println(line)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "extbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.correct {
		os.Exit(1)
	}
}

// report is what one run prints: the run record, then the result line.
type report struct {
	record    []string
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	spans     spanAggs // traced phase, for the span summary
}

func (r *report) printf(format string, args ...any) {
	r.record = append(r.record, fmt.Sprintf(format, args...))
}

// instance is one built database.
type instance struct {
	path string
	db   *engine.DB
	w    workload
}

// installText registers the text cartridge — wrapped in the tracer's
// seams when t is non-nil — and, on a fresh database, creates its
// operators and indextype.
func installText(db *engine.DB, t *tracer, fresh bool) error {
	if t == nil {
		if err := text.Register(db); err != nil {
			return err
		}
	} else if err := registerTracedText(db, t); err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	return text.Setup(db.NewSession())
}

// registerTracedText registers the text cartridge's routines under the
// cartridge's own names, each behind a timing wrapper. The functional
// implementations are unexported, so they are taken from a scratch
// in-memory registry the cartridge registers into.
func registerTracedText(db *engine.DB, t *tracer) error {
	scratch, err := engine.Open(engine.Options{})
	if err != nil {
		return err
	}
	defer scratch.Close()
	if err := text.Register(scratch); err != nil {
		return err
	}
	reg := db.Registry()
	if err := reg.RegisterMethods(text.MethodsName, t.methods(text.Methods{})); err != nil {
		return err
	}
	if err := reg.RegisterStats(text.StatsName, t.stats(&text.Stats{})); err != nil {
		return err
	}
	for _, name := range []string{text.FuncContains, text.FuncScore} {
		f, ok := scratch.Registry().Function(name)
		if !ok {
			return fmt.Errorf("text cartridge registers no function %s", name)
		}
		if err := reg.RegisterFunction(name, t.function(name, f)); err != nil {
			return err
		}
	}
	return nil
}

// setupTimes are one build's phases in seconds.
type setupTimes struct {
	total, load, index float64
}

// setUp builds the workload's database at path: open, cartridge install,
// load, CREATE INDEX and a checkpoint, all before the first timed
// statement. With a tracer the calls are traced under a "setup" client.
func setUp(path string, w workload, t *tracer) (*instance, setupTimes, error) {
	var st setupTimes
	var ct *clientTrace
	if t != nil {
		ct = t.bind("setup")
		defer t.unbind(ct)
	}
	t0 := time.Now()
	sp := t.start("setup.load")
	db, err := openDB(path, w.cachePages(), t)
	if err != nil {
		return nil, st, err
	}
	fail := func(err error) (*instance, setupTimes, error) {
		db.Close()
		return nil, st, err
	}
	if err := installText(db, t, true); err != nil {
		return fail(err)
	}
	s := db.NewSession()
	if err := w.load(s); err != nil {
		return fail(err)
	}
	sp.end(0)
	t1 := time.Now()
	sp = t.start("setup.index")
	if err := w.index(s); err != nil {
		return fail(err)
	}
	sp.end(0)
	t2 := time.Now()
	sp = t.start("setup.checkpoint")
	if err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	sp.end(0)
	st.total = time.Since(t0).Seconds()
	st.load, st.index = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	return &instance{path: path, db: db, w: w}, st, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	lat       latencies
	templates latencies // keyed by class.template
	elapsed   time.Duration
	userBytes int64
	before    engine.Metrics
	after     engine.Metrics
	rt        runtimeSample
	rowsIn    int64 // traced: rows the search plans' table accesses produced
	rowsOut   int64 // traced: rows the search statements returned
	spans     spanAggs
	// heapLiveMB is the median over the phase of the Go live heap as the
	// last GC cycle marked it, sampled every heapSampleEvery.
	heapLiveMB float64
}

func (p *phase) completed() int {
	_, _, c := p.lat.totals()
	return c
}

func (p *phase) opsPerSecond() float64 {
	return ratio(float64(p.completed()), p.elapsed.Seconds())
}

// errMismatch marks an output-check failure: it fails the run rather than
// counting as a failed statement.
var errMismatch = errors.New("output check failed")

// runPhase drives the closed loop for d. With t on, statements are traced
// spans and searches run through Session.QueryTraced.
func runPhase(inst *instance, d time.Duration, seed int64, t *tracer) (*phase, error) {
	p := &phase{lat: latencies{}, templates: latencies{}}
	traced := t != nil && t.on.Load()
	runtime.GC()
	p.before = inst.db.Metrics()
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(d)

	var wg sync.WaitGroup
	var mu sync.Mutex // guards p's merged fields and firstErr
	var firstErr error
	var stop sync.Once
	halt := make(chan struct{}) // closed on a mismatch: the other client stops
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ct *clientTrace
			if traced {
				ct = t.bind(fmt.Sprintf("client%d", c))
				defer t.unbind(ct)
			}
			rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			gen := &clientGen{}
			s := inst.db.NewSession()
			lat := latencies{}
			tmpl := latencies{}
			var userBytes, rowsIn, rowsOut int64
			var err error
		loop:
			for time.Now().Before(deadline) {
				select {
				case <-halt:
					break loop
				default:
				}
				o := inst.w.next(rng, gen)
				if ct != nil {
					ct.stmt++
				}
				cs, ts := lat.class(o.class), tmpl.class(o.class+"."+o.tmpl)
				cs.attempted++
				ts.attempted++
				sp := t.start("stmt." + o.class)
				t0 := time.Now()
				var rs *engine.ResultSet
				var res engine.Result
				var serr error
				switch {
				case traced && o.class == classSearch:
					var in, out int64
					rs, in, out, serr = queryTraced(s, o)
					rowsIn += in
					rowsOut += out
				case o.query:
					rs, serr = s.Query(o.sql, o.args...)
				default:
					res, serr = s.Exec(o.sql, o.args...)
				}
				el := time.Since(t0)
				sp.end(0)
				o.done(serr == nil)
				if serr != nil {
					cs.failed++
					ts.failed++
					continue
				}
				if cerr := o.check(rs, res.RowsAffected); cerr != nil {
					err = fmt.Errorf("%w: client %d, %s %v: %v", errMismatch, c, o.sql, o.args, cerr)
					break
				}
				cs.samples = append(cs.samples, el)
				ts.samples = append(ts.samples, el)
				userBytes += o.userBytes
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
				stop.Do(func() { close(halt) })
			}
			p.lat.merge(lat)
			p.templates.merge(tmpl)
			p.userBytes += userBytes
			p.rowsIn += rowsIn
			p.rowsOut += rowsOut
		}(c)
	}
	stopHeap := make(chan struct{})
	heap := sampleHeap(stopHeap)
	wg.Wait()
	close(stopHeap)
	p.elapsed = time.Since(start)
	p.heapLiveMB = median(<-heap)
	p.after = inst.db.Metrics()
	p.rt = readRuntime().minus(rt0)
	if t != nil {
		p.spans = t.take()
	}
	return p, firstErr
}

// runtimeSample holds the runtime/metrics values the benchmark reads.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2)}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// heapLiveMB is the Go live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// heapSampleEvery is the live-heap sampling period of a timed phase.
const heapSampleEvery = 250 * time.Millisecond

// sampleHeap samples the live heap until stop is closed and then sends
// the samples in MB.
func sampleHeap(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var mb []float64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-tick.C:
			case <-stop:
				out <- mb
				return
			}
		}
	}()
	return out
}

// verifyAll checks the live database against the model, then closes it,
// reopens it from the same files without any wrapper, and checks again.
// It returns the page file's size after Close's final checkpoint, when
// the live WAL is empty.
func verifyAll(inst *instance) (int64, error) {
	if err := inst.w.verify(inst.db.NewSession()); err != nil {
		inst.db.Close()
		return 0, fmt.Errorf("%w: before reopen: %v", errMismatch, err)
	}
	if err := inst.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	size := fileSize(inst.path)
	db, err := openDB(inst.path, inst.w.cachePages(), nil)
	if err != nil {
		return 0, err
	}
	if err := installText(db, nil, false); err != nil {
		db.Close()
		return 0, err
	}
	if err := inst.w.verify(db.NewSession()); err != nil {
		db.Close()
		return 0, fmt.Errorf("%w: after reopen: %v", errMismatch, err)
	}
	return size, db.Close()
}

func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	rep := &report{metrics: metrics{}}
	rep.printf("run workload=%s seed=%d seconds=%d trace=%t clients=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, clients)

	var t *tracer
	builds := setupRepeats
	if cfg.trace {
		t = newTracer(cfg.spans != "")
		t.on.Store(true)
		builds = 1
	}
	var inst *instance
	var setups []float64
	var st setupTimes
	for i := 0; i < builds; i++ {
		dir := filepath.Join(base, fmt.Sprintf("db%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		in, times, err := setUp(filepath.Join(dir, "extdb"), workloads[cfg.workload](cfg.seed), t)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, times.total)
		st = times
		if i < builds-1 {
			if err := in.db.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		inst = in
	}
	var setupSpans spanAggs
	if t != nil {
		setupSpans = t.take()
	}
	rep.printf("setup builds=%d seconds=%s median=%.4f", builds, fmtFloats(setups), median(setups))
	// Space and memory are measured on the loaded database, after set-up's
	// checkpoint has emptied the live WAL. By the end of a write run the
	// page file has grown with however many statements the run completed,
	// which would make a faster engine look bigger, and the live heap
	// varies by a quarter from run to run.
	setupFile, setupUser := fileSize(inst.path), inst.w.liveUserBytes()
	setupHeap := heapLiveMB()
	rep.printf("machine NumCPU=%d GOMAXPROCS=%d go=%s flush=fsync-per-commit pool_pages=%d file_pages=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), inst.w.cachePages(), setupFile/storage.PageSize)

	d := time.Duration(cfg.seconds) * time.Second
	var timed *phase
	if cfg.trace {
		// The same database runs an untraced half and a traced half; the
		// throughput difference is the tracing overhead.
		t.on.Store(false)
		plain, err := runPhase(inst, d/2, cfg.seed, t)
		if err != nil {
			inst.db.Close()
			return failed(rep, err)
		}
		t.on.Store(true)
		timed, err = runPhase(inst, d/2, cfg.seed, t)
		t.on.Store(false)
		if err != nil {
			inst.db.Close()
			return failed(rep, err)
		}
		rep.recordPhase("untraced", plain)
		over := ratio(plain.opsPerSecond(), timed.opsPerSecond()) - 1
		rep.printf("overhead traced_ops_per_s=%.4f untraced_ops_per_s=%.4f overhead=%.2f%%",
			timed.opsPerSecond(), plain.opsPerSecond(), 100*over)
		rep.attempted, rep.failed, _ = plain.lat.totals()
		rep.spans = timed.spans
		layerMetrics(rep.metrics, timed, setupSpans, st, over, inst.w.size())
	} else {
		var err error
		timed, err = runPhase(inst, d, cfg.seed, nil)
		if err != nil {
			inst.db.Close()
			return failed(rep, err)
		}
		rep.printf("overhead n/a (untraced run; a --trace 1 run reports it)")
	}
	rep.recordPhase(map[bool]string{true: "traced", false: "untraced"}[cfg.trace], timed)
	a, f, _ := timed.lat.totals()
	rep.attempted += a
	rep.failed += f

	endFile, err := verifyAll(inst)
	if err != nil {
		return failed(rep, err)
	}
	rep.printf("space file_pages setup=%d end=%d db_bytes_per_user_byte setup=%.4f end=%.4f",
		setupFile/storage.PageSize, endFile/storage.PageSize,
		ratio(float64(setupFile), float64(setupUser)), ratio(float64(endFile), float64(inst.w.liveUserBytes())))
	rep.printf("checks passed: in-run results, planned-vs-functional sample, live rows = acked inserts - acked deletes with acked updates, again after reopen")
	rep.recordSpans()
	if t != nil && cfg.spans != "" {
		if err := t.writeSpans(cfg.spans); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		endToEnd(rep.metrics, setups, timed, inst.w.primary(), setupHeap, setupFile, setupUser)
	}
	rep.correct = true
	return rep, nil
}

// endToEnd fills the end-to-end metrics of an untraced run. p50_ms is the
// median latency of the workload's primary statement class; its p99, like
// every other class percentile, is in the run record only (README.md says
// why).
func endToEnd(m metrics, setups []float64, p *phase, primary string, heapMB float64, fileBytes, liveBytes int64) {
	m.set("setup_s", "s", median(setups))
	m.set("ops_per_s", "ops/s", p.opsPerSecond())
	if v, ok := percentile(sorted(p.lat.class(primary).samples), 0.50); ok {
		m.set("p50_ms", "ms", ms(v))
	}
	m.set("heap_live_mb", "MB", heapMB)
	m.set("db_bytes_per_user_byte", "ratio", ratio(float64(fileBytes), float64(liveBytes)))
}

// failed turns an output-check mismatch into a printed incorrect result;
// any other error aborts the run.
func failed(rep *report, err error) (*report, error) {
	if !errors.Is(err, errMismatch) {
		return nil, err
	}
	rep.printf("MISMATCH %v", err)
	rep.correct = false
	return rep, nil
}

// recordPhase prints a phase's counts and latencies per class and per
// statement template.
func (r *report) recordPhase(name string, p *phase) {
	a, f, c := p.lat.totals()
	r.printf("phase %s seconds=%.3f attempted=%d completed=%d failed=%d fail_ratio=%.6f ops_per_s=%.4f",
		name, p.elapsed.Seconds(), a, c, f, p.lat.failRatio(), p.opsPerSecond())
	r.recordLatencies("class", p.lat)
	r.recordLatencies("template", p.templates)
	wal := p.after.Pager.WALBytes - p.before.Pager.WALBytes
	r.printf("  log_bytes_per_user_byte=%.4f (wal_bytes=%d user_bytes=%d) checkpoints=%d heap_live_mb_median=%.4f",
		ratio(float64(wal), float64(p.userBytes)), wal, p.userBytes,
		p.after.Engine.BgCheckpoints-p.before.Engine.BgCheckpoints, p.heapLiveMB)
}

// recordLatencies prints one line per key: counts, then p50 and p99 in
// ms, or why a percentile is omitted.
func (r *report) recordLatencies(kind string, l latencies) {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := l[k]
		s := sorted(cs.samples)
		line := fmt.Sprintf("  %s %s n=%d attempted=%d failed=%d", kind, k, len(cs.samples), cs.attempted, cs.failed)
		for _, q := range []float64{0.50, 0.99} {
			if v, ok := percentile(s, q); ok {
				line += fmt.Sprintf(" p%.0f_ms=%.4f", q*100, ms(v))
			} else {
				line += fmt.Sprintf(" p%.0f_ms=omitted(too_few_samples)", q*100)
			}
		}
		r.record = append(r.record, line)
	}
}

// recordSpans prints the traced phase's span aggregate, one line per span
// name and parent, in call-tree order.
func (r *report) recordSpans() {
	keys := make([]spanKey, 0, len(r.spans))
	for k := range r.spans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].parent != keys[j].parent {
			return keys[i].parent < keys[j].parent
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		g := r.spans[k]
		parent := k.parent
		if parent == "" {
			parent = "(root)"
		}
		r.printf("  span %-18s parent=%-16s count=%d ms=%.3f self_ms=%.3f units=%d",
			k.name, parent, g.count, nsToMS(g.nanos), nsToMS(g.self), g.units)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
