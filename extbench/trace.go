package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/storage"
	"repro/internal/types"
)

// The tracer records a span around every call the benchmark makes into a
// layer's public seam: the statements it sends (engine.Session), the
// storage.Backend and storage.WALSink it hands the engine, and the
// extidx.IndexMethods, StatsMethods, Function and Server values it
// registers for the text cartridge. Nothing inside the engine is
// instrumented.
//
// A span belongs to the client whose goroutine made the call. A traced
// client locks its goroutine to an OS thread, so the thread id names the
// client cheaply (the functional Contains alone is thousands of calls per
// statement); the spans a client causes nest under the statement it is
// running. Calls on goroutines the engine owns (the background
// checkpointer) are root spans of their own. A span's self time is its
// duration minus the time of the spans nested directly inside it.

// spanKey aggregates spans by name and the name of their parent ("" for
// root spans).
type spanKey struct{ name, parent string }

// spanAgg is the aggregate of every span with one key.
type spanAgg struct {
	count int64
	nanos int64
	self  int64
	units int64 // bytes for storage calls, rows for Fetch
}

type spanAggs map[spanKey]*spanAgg

func (a spanAggs) add(k spanKey, nanos, self, units int64) {
	g := a[k]
	if g == nil {
		g = &spanAgg{}
		a[k] = g
	}
	g.count++
	g.nanos += nanos
	g.self += self
	g.units += units
}

// spanRecord is one finished span, kept for the --spans dump.
type spanRecord struct {
	Client  string `json:"client"`
	Stmt    int64  `json:"stmt"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	SelfUS  int64  `json:"self_us"`
	Units   int64  `json:"units"`
}

// maxKeptSpans bounds the memory the --spans dump may hold.
const maxKeptSpans = 200000

// tracer collects spans while on. Clients register their goroutines with
// bind; everything else is a root span under the "engine" client.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	keep  bool // retain individual spans for the dump

	clients atomic.Pointer[clientSet] // replaced, never changed, on bind/unbind
	mu      sync.Mutex                // serializes bind/unbind; guards engine, kept
	engine  spanAggs
	kept    []spanRecord
}

// clientSet is the immutable list of bound clients.
type clientSet struct{ list []*clientTrace }

// clientTrace is one bound goroutine's span stack and aggregate; only
// that goroutine touches it while tracing is on.
type clientTrace struct {
	name  string
	tid   int
	stmt  int64
	stack []*span
	aggs  spanAggs
}

type span struct {
	t      *tracer
	ct     *clientTrace
	parent *span
	name   string
	start  time.Time
	child  int64
}

func newTracer(keep bool) *tracer {
	t := &tracer{epoch: time.Now(), keep: keep, engine: spanAggs{}}
	t.clients.Store(&clientSet{})
	return t
}

// bind locks the calling goroutine to its thread and registers it as
// client name.
func (t *tracer) bind(name string) *clientTrace {
	runtime.LockOSThread()
	ct := &clientTrace{name: name, tid: syscall.Gettid(), aggs: spanAggs{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := &clientSet{list: append([]*clientTrace{ct}, t.clients.Load().list...)}
	t.clients.Store(next)
	return ct
}

// unbind removes a client whose goroutine is done, folding its aggregate
// into the engine-wide one, and unlocks the goroutine from its thread.
func (t *tracer) unbind(ct *clientTrace) {
	defer runtime.UnlockOSThread()
	t.mu.Lock()
	defer t.mu.Unlock()
	next := &clientSet{}
	for _, c := range t.clients.Load().list {
		if c != ct {
			next.list = append(next.list, c)
		}
	}
	t.clients.Store(next)
	for k, g := range ct.aggs {
		e := t.engine[k]
		if e == nil {
			e = &spanAgg{}
			t.engine[k] = e
		}
		e.count += g.count
		e.nanos += g.nanos
		e.self += g.self
		e.units += g.units
	}
}

// take returns and clears the aggregate of every unbound client and
// engine goroutine.
func (t *tracer) take() spanAggs {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.engine
	t.engine = spanAggs{}
	return a
}

func (t *tracer) current() *clientTrace {
	tid := syscall.Gettid()
	for _, c := range t.clients.Load().list {
		if c.tid == tid {
			return c
		}
	}
	return nil
}

// start opens a span; it returns nil (a no-op span) while tracing is off.
func (t *tracer) start(name string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	sp := &span{t: t, name: name, ct: t.current(), start: time.Now()}
	if ct := sp.ct; ct != nil {
		if n := len(ct.stack); n > 0 {
			sp.parent = ct.stack[n-1]
		}
		ct.stack = append(ct.stack, sp)
	}
	return sp
}

// end closes the span, recording units (bytes or rows) with it.
func (sp *span) end(units int) {
	if sp == nil {
		return
	}
	d := time.Since(sp.start).Nanoseconds()
	self, u := d-sp.child, int64(units)
	k := spanKey{name: sp.name}
	if sp.parent != nil {
		k.parent = sp.parent.name
		sp.parent.child += d
	}
	ct, t := sp.ct, sp.t
	if ct != nil {
		ct.stack = ct.stack[:len(ct.stack)-1]
		ct.aggs.add(k, d, self, u)
		if !t.keep {
			return
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := spanRecord{Client: "engine", Name: sp.name, Parent: k.parent,
		StartUS: sp.start.Sub(t.epoch).Microseconds(), DurUS: d / 1e3, SelfUS: self / 1e3, Units: u}
	if ct == nil {
		t.engine.add(k, d, self, u)
	} else {
		rec.Client, rec.Stmt = ct.name, ct.stmt
	}
	if t.keep && len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, rec)
	}
}

// writeSpans dumps the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, r := range t.kept {
		if err := enc.Encode(r); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Storage seams

// tracedBackend times the page file's device calls.
type tracedBackend struct {
	storage.Backend
	t *tracer
}

func (b tracedBackend) ReadPage(id storage.PageID, buf []byte) error {
	sp := b.t.start("device.ReadPage")
	err := b.Backend.ReadPage(id, buf)
	sp.end(len(buf))
	return err
}

func (b tracedBackend) WritePage(id storage.PageID, buf []byte) error {
	sp := b.t.start("device.WritePage")
	err := b.Backend.WritePage(id, buf)
	sp.end(len(buf))
	return err
}

func (b tracedBackend) Allocate() (storage.PageID, error) {
	sp := b.t.start("device.Allocate")
	id, err := b.Backend.Allocate()
	sp.end(0)
	return id, err
}

func (b tracedBackend) Sync() error {
	sp := b.t.start("device.Sync")
	err := b.Backend.Sync()
	sp.end(0)
	return err
}

// tracedSink times the redo log's device calls.
type tracedSink struct {
	storage.WALSink
	t *tracer
}

func (s tracedSink) Append(p []byte) error {
	sp := s.t.start("wal.Append")
	err := s.WALSink.Append(p)
	sp.end(len(p))
	return err
}

func (s tracedSink) Sync() error {
	sp := s.t.start("wal.Sync")
	err := s.WALSink.Sync()
	sp.end(0)
	return err
}

func (s tracedSink) Truncate(n int64) error {
	sp := s.t.start("wal.Truncate")
	err := s.WALSink.Truncate(n)
	sp.end(0)
	return err
}

func (s tracedSink) Reset() error {
	sp := s.t.start("wal.Reset")
	err := s.WALSink.Reset()
	sp.end(0)
	return err
}

// ---------------------------------------------------------------------------
// Extensible-indexing seams

// tracedServer times the callback SQL a cartridge routine issues.
type tracedServer struct {
	extidx.Server
	t *tracer
}

func (s tracedServer) Query(q string, args ...types.Value) ([][]types.Value, error) {
	sp := s.t.start("callback.Query")
	rows, err := s.Server.Query(q, args...)
	sp.end(len(rows))
	return rows, err
}

func (s tracedServer) Exec(q string, args ...types.Value) (int64, error) {
	sp := s.t.start("callback.Exec")
	n, err := s.Server.Exec(q, args...)
	sp.end(int(n))
	return n, err
}

// tracedMethods times every ODCIIndex routine and hands the routine a
// traced Server.
type tracedMethods struct {
	inner extidx.IndexMethods
	t     *tracer
}

func (m tracedMethods) srv(s extidx.Server) extidx.Server { return tracedServer{s, m.t} }

func (m tracedMethods) Create(s extidx.Server, info extidx.IndexInfo) error {
	sp := m.t.start("odci.Create")
	err := m.inner.Create(m.srv(s), info)
	sp.end(0)
	return err
}

func (m tracedMethods) Alter(s extidx.Server, info extidx.IndexInfo, p string) error {
	sp := m.t.start("odci.Alter")
	err := m.inner.Alter(m.srv(s), info, p)
	sp.end(0)
	return err
}

func (m tracedMethods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	sp := m.t.start("odci.Truncate")
	err := m.inner.Truncate(m.srv(s), info)
	sp.end(0)
	return err
}

func (m tracedMethods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	sp := m.t.start("odci.Drop")
	err := m.inner.Drop(m.srv(s), info)
	sp.end(0)
	return err
}

func (m tracedMethods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, v types.Value) error {
	sp := m.t.start("odci.Insert")
	err := m.inner.Insert(m.srv(s), info, rid, v)
	sp.end(0)
	return err
}

func (m tracedMethods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, old, v types.Value) error {
	sp := m.t.start("odci.Update")
	err := m.inner.Update(m.srv(s), info, rid, old, v)
	sp.end(0)
	return err
}

func (m tracedMethods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, old types.Value) error {
	sp := m.t.start("odci.Delete")
	err := m.inner.Delete(m.srv(s), info, rid, old)
	sp.end(0)
	return err
}

func (m tracedMethods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	sp := m.t.start("odci.Start")
	st, err := m.inner.Start(m.srv(s), info, call)
	sp.end(0)
	return st, err
}

func (m tracedMethods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	sp := m.t.start("odci.Fetch")
	res, next, err := m.inner.Fetch(m.srv(s), st, maxRows)
	sp.end(len(res.RIDs))
	return res, next, err
}

func (m tracedMethods) Close(s extidx.Server, st extidx.ScanState) error {
	sp := m.t.start("odci.Close")
	err := m.inner.Close(m.srv(s), st)
	sp.end(0)
	return err
}

// tracedParallelMethods is tracedMethods for an implementation that also
// offers partitioned scans: the planner finds StartParallel exactly when
// the cartridge has it, so wrapping never changes a plan.
type tracedParallelMethods struct {
	tracedMethods
	par extidx.ParallelMethods
}

func (m tracedParallelMethods) StartParallel(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall, maxParts int) ([]extidx.ScanState, error) {
	sp := m.t.start("odci.StartParallel")
	parts, err := m.par.StartParallel(m.srv(s), info, call, maxParts)
	sp.end(len(parts))
	return parts, err
}

func (t *tracer) methods(m extidx.IndexMethods) extidx.IndexMethods {
	base := tracedMethods{inner: m, t: t}
	if p, ok := m.(extidx.ParallelMethods); ok {
		return tracedParallelMethods{tracedMethods: base, par: p}
	}
	return base
}

// tracedStats times the ODCIStats routines the optimizer calls.
type tracedStats struct {
	inner extidx.StatsMethods
	t     *tracer
}

func (m tracedStats) Selectivity(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (float64, error) {
	sp := m.t.start("stats.Selectivity")
	v, err := m.inner.Selectivity(tracedServer{s, m.t}, info, call)
	sp.end(0)
	return v, err
}

func (m tracedStats) IndexCost(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall, sel float64) (extidx.Cost, error) {
	sp := m.t.start("stats.IndexCost")
	c, err := m.inner.IndexCost(tracedServer{s, m.t}, info, call, sel)
	sp.end(0)
	return c, err
}

// tracedStatsCollector is tracedStats for an implementation that also
// gathers statistics on ANALYZE.
type tracedStatsCollector struct {
	tracedStats
	col extidx.StatsCollector
}

func (m tracedStatsCollector) Collect(s extidx.Server, info extidx.IndexInfo) error {
	sp := m.t.start("stats.Collect")
	err := m.col.Collect(tracedServer{s, m.t}, info)
	sp.end(0)
	return err
}

func (t *tracer) stats(m extidx.StatsMethods) extidx.StatsMethods {
	base := tracedStats{inner: m, t: t}
	if c, ok := m.(extidx.StatsCollector); ok {
		return tracedStatsCollector{tracedStats: base, col: c}
	}
	return base
}

// function times a registered SQL function: the functional
// implementation of an operator, called once per row it filters.
func (t *tracer) function(name string, f extidx.Function) extidx.Function {
	span := "func." + name
	return func(args []types.Value) (types.Value, error) {
		sp := t.start(span)
		v, err := f(args)
		sp.end(0)
		return v, err
	}
}

// ---------------------------------------------------------------------------
// Opening a database with or without the seams

// openDB opens (or reopens) the database at path. With a tracer, the page
// file and the segmented WAL are opened here and passed in wrapped;
// otherwise the engine opens the same two files itself.
func openDB(path string, pool int, t *tracer) (*engine.DB, error) {
	opts := engine.Options{Path: path, CacheSizePages: pool}
	if t != nil {
		fb, err := storage.OpenFileBackend(path)
		if err != nil {
			return nil, err
		}
		sink, err := storage.OpenFileSegmentedSink(path+".wal", 0)
		if err != nil {
			fb.Close()
			return nil, err
		}
		opts.Backend = tracedBackend{fb, t}
		opts.WALSink = tracedSink{sink, t}
	}
	db, err := engine.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	return db, nil
}
