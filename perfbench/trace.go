package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multisite/internal/core"
	"multisite/internal/diskcache"
	"multisite/internal/gateway"
	"multisite/internal/server"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// The traced run builds the workload's topology in-process from the
// layers' public constructors and records spans at their seams: the
// benchmark's own middleware around each Handler, a delegating solver
// through server.Options.WrapSolver, a counting server.Options.
// DiskInject, and a recording transport in gateway.Options.Client.
// Spans stay in memory while the traffic runs and are written out at
// the end. It never feeds an end-to-end metric.

// span is one timed interval at a layer boundary. Spans of one client
// request share Req; Parent is the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// hdrParent carries "spanID/reqID" from the gateway's forward span to
// the shard's server span.
const hdrParent = "X-Perfbench-Parent"

type spanRef struct{ id, req int64 }

type ctxKey struct{}

// tracer records spans and disk operations while on.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Int64
	epoch time.Time
	mu    sync.Mutex
	spans []span
	disk  [3]atomic.Int64 // by diskcache.Op
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler records one span per request around h.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.ids.Add(1)
		parent, req := int64(0), id
		if p, q, ok := strings.Cut(r.Header.Get(hdrParent), "/"); ok {
			parent, _ = strconv.ParseInt(p, 10, 64)
			req, _ = strconv.ParseInt(q, 10, 64)
		}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{id, req})))
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()})
	})
}

// tracedSolver records a solve span around each call, parented by the
// request span its context carries (none for job workers).
type tracedSolver struct {
	solve.Solver
	t *tracer
}

func (s tracedSolver) Solve(ctx context.Context, chip *soc.SOC, cfg core.Config) (*core.Result, error) {
	if !s.t.on.Load() {
		return s.Solver.Solve(ctx, chip, cfg)
	}
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	id, start := s.t.ids.Add(1), s.t.now()
	res, err := s.Solver.Solve(ctx, chip, cfg)
	s.t.add(span{ID: id, Parent: ref.id, Req: ref.req, Name: "solve", Start: start, End: s.t.now()})
	return res, err
}

// diskOp counts a physical disk operation and never injects a fault.
func (t *tracer) diskOp(op diskcache.Op) diskcache.Fault {
	if t.on.Load() && int(op) < len(t.disk) {
		t.disk[op].Add(1)
	}
	return diskcache.FaultNone
}

// tracedTransport records the gateway's forward span: from sending to
// a shard until the shard's response body is consumed.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	ref, _ := req.Context().Value(ctxKey{}).(spanRef)
	id, start := tt.t.ids.Add(1), tt.t.now()
	req = req.Clone(req.Context())
	req.Header.Set(hdrParent, fmt.Sprintf("%d/%d", id, ref.req))
	finish := func() {
		tt.t.add(span{ID: id, Parent: ref.id, Req: ref.req, Name: "forward", Start: start, End: tt.t.now()})
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: finish}
	return resp, nil
}

// spanBody ends a span when its body is read to EOF or closed.
type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.finish)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.finish)
	return b.ReadCloser.Close()
}

// stack is an in-process topology on loopback listeners.
type stack struct {
	base    string
	shards  []string
	gw      string
	servers []*server.Server
	https   []*http.Server
}

// buildStack constructs the workload's topology in-process; a nil
// tracer builds it exactly as the binaries do.
func buildStack(topo topology, t *tracer, dataDir string) (*stack, error) {
	nShards := 1
	if topo == topoFleet {
		nShards = 2
	}
	var lns []net.Listener
	for i := 0; i < nShards+1; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	st := &stack{}
	serve := func(ln net.Listener, h http.Handler) {
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		st.https = append(st.https, hs)
		go hs.Serve(ln)
	}
	var peers []string
	for i := 0; i < nShards; i++ {
		peers = append(peers, lns[i].Addr().String())
	}
	for i := 0; i < nShards; i++ {
		opts := server.Options{}
		switch topo {
		case topoDurable:
			opts.DataDir, opts.CacheCapacity, opts.JobWorkers = dataDir, durableCacheEntries, 2
		case topoFleet:
			opts.FleetPeers, opts.FleetSelf = peers, peers[i]
		}
		if t != nil {
			opts.WrapSolver = func(_ string, sv solve.Solver) solve.Solver { return tracedSolver{sv, t} }
			opts.DiskInject = t.diskOp
		}
		s, err := server.NewWithData(opts)
		if err != nil {
			st.close()
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		st.servers = append(st.servers, s)
		var h http.Handler = s.Handler()
		if t != nil {
			h = t.handler("server", h)
		}
		serve(lns[i], h)
		st.shards = append(st.shards, peers[i])
	}
	st.base = "http://" + peers[0]
	gwLn := lns[nShards]
	if topo != topoFleet {
		gwLn.Close()
		return st, waitAllReady(st.shards)
	}
	opts := gateway.Options{Peers: peers}
	if t != nil {
		opts.Client = &http.Client{
			Transport:     tracedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), t: t},
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		}
	}
	g, err := gateway.New(opts)
	if err != nil {
		gwLn.Close()
		st.close()
		return nil, err
	}
	var h http.Handler = g.Handler()
	if t != nil {
		h = t.handler("gateway", h)
	}
	serve(gwLn, h)
	st.gw = gwLn.Addr().String()
	st.base = "http://" + st.gw
	return st, waitAllReady(append(st.shards, st.gw))
}

func waitAllReady(addrs []string) error {
	for _, a := range addrs {
		if err := waitReady(&proc{name: "in-process server", addr: a, done: make(chan struct{})}, 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

func (st *stack) close() {
	for _, hs := range st.https {
		hs.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range st.servers {
		s.Close(ctx)
	}
}

func (st *stack) scrape() ([]series, series, error) {
	return scrapeSet(&fleetSet{shards: st.shards, gw: st.gw})
}

// passResult is one in-process replay of the traced slice.
type passResult struct {
	samples  []sample
	wall     time.Duration
	counters counters
	heapLive float64 // MB live after a forced GC at the end
	gcCycles uint32
}

// pass replays ops once on a fresh in-process stack, traced when t is
// non-nil. Only the measured window is traced.
func pass(ctx context.Context, w *workload, t *tracer, dataDir string, ops []op) (*passResult, error) {
	st, err := buildStack(w.topology, t, dataDir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if err := warm(ctx, st.base, w.warmup); err != nil {
		return nil, err
	}
	before, gwBefore, err := st.scrape()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if t != nil {
		t.on.Store(true)
	}
	samples, wall := runLoop(ctx, st.base, ops, true)
	if t != nil {
		t.on.Store(false)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	after, gwAfter, err := st.scrape()
	if err != nil {
		return nil, err
	}
	var win window
	win.add(before, after, gwBefore, gwAfter)
	c := win.counters()
	return &passResult{
		samples: samples, wall: wall, counters: c,
		heapLive: float64(m1.HeapAlloc) / (1 << 20),
		gcCycles: m1.NumGC - m0.NumGC - 1, // minus the forced collection
	}, nil
}

// tracedOps is the slice a traced run replays: the first round's slice
// of the sequence, so the traced run costs about one round per pass.
// All passes share the benchmark's process, where every design upload
// stays pinned, so design replays half a round.
func (w *workload) tracedOps() []op {
	ops := w.chunks()[0]
	if w.name == "design" {
		ops = ops[:len(ops)/2]
	}
	return ops
}

// runTraced replays the traced slice three times in-process: untraced,
// traced, untraced again. It derives the per-layer metrics from the
// spans and the first untraced pass's /metrics deltas, and then replays
// the slice's inputs through the layers' public functions in isolation.
func runTraced(w *workload, seed int64, buildDir string) (*record, error) {
	ctx := context.Background()
	ops := w.tracedOps()
	runDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-trace-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)
	var template string
	if w.topology == topoDurable {
		var err error
		if template, err = prepareDurable(ctx, w, buildDir); err != nil {
			return nil, err
		}
	}
	dataDir := func(name string) (string, error) {
		if template == "" {
			return "", nil
		}
		d := filepath.Join(runDir, name)
		return d, copyDir(template, d)
	}

	dir, err := dataDir("untraced")
	if err != nil {
		return nil, err
	}
	plain, err := pass(ctx, w, nil, dir, ops)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	if dir, err = dataDir("traced"); err != nil {
		return nil, err
	}
	traced, err := pass(ctx, w, t, dir, ops)
	if err != nil {
		return nil, err
	}
	// A second untraced pass after the traced one, so the overhead ratio
	// compares the traced pass with untraced passes on both sides of it
	// rather than with the process's first, coldest pass.
	if dir, err = dataDir("untraced-again"); err != nil {
		return nil, err
	}
	again, err := pass(ctx, w, nil, dir, ops)
	if err != nil {
		return nil, err
	}
	passes := []*passResult{plain, traced, again}

	rec := &record{Workload: w.name, Why: w.why, Trace: true, Ops: len(ops), Clients: clients()}
	c := plain.counters
	rec.Counters = &c
	rec.Violations = checkCounters(w.name, ops, c)
	failed := 0
	for _, p := range passes {
		for _, s := range p.samples {
			if s.err != "" {
				failed++
				if len(rec.Errors) < 10 {
					rec.Errors = append(rec.Errors, s.err)
				}
			}
		}
	}
	for _, p := range passes {
		bad, err := checkDigests(ops, p.samples)
		if err != nil {
			return nil, err
		}
		rec.Violations = append(rec.Violations, bad...)
	}

	untraced := (plain.wall + again.wall) / 2
	m := layerMetrics(t, plain, traced, untraced, len(ops))
	reps, err := replayLayers(ctx, ops, traced.samples, runDir)
	if err != nil {
		return nil, err
	}
	for k, v := range reps {
		m[k] = v
	}
	rec.Result = result{
		Correct:   len(rec.Violations) == 0 && failed == 0,
		Attempted: len(plain.samples) + len(traced.samples) + len(again.samples),
		Failed:    failed,
		Metrics:   m,
	}
	rec.Diagnostics = map[string]float64{
		"untraced_ops_per_s": float64(len(ops)) / untraced.Seconds(),
		"traced_ops_per_s":   float64(len(ops)) / traced.wall.Seconds(),
		"spans":              float64(len(t.spans)),
	}
	return rec, writeSpans(buildDir, w.name, seed, t.spans)
}

// layerMetrics derives the span and counter metrics of the traced run.
// untraced is the mean wall time of the untraced passes.
func layerMetrics(t *tracer, plain, traced *passResult, untraced time.Duration, nops int) map[string]metric {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// selfMean is the mean self time of the named spans: each span's
	// duration minus the part of it its children cover.
	selfMean := func(name string) float64 {
		var total time.Duration
		n := 0
		for _, s := range t.spans {
			if s.Name == name {
				total += s.dur() - covered(s, children[s.ID])
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return ms(total) / float64(n)
	}
	var solveCalls float64
	var solveBusy time.Duration
	for _, s := range t.spans {
		if s.Name == "solve" {
			solveCalls++
			solveBusy += s.dur()
		}
	}
	perCall := 0.0
	if solveCalls > 0 {
		perCall = ms(solveBusy) / solveCalls
	}
	var firstRows []float64
	for _, s := range traced.samples {
		if s.class == classJob {
			firstRows = append(firstRows, ms(s.first))
		}
	}
	c := plain.counters
	n := float64(nops)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lookups := c.CacheHits + c.CacheDedups + c.CacheComputes
	diskGets := c.DiskHits + c.DiskMisses + c.DiskQuarantined + c.DiskReadErrors
	return map[string]metric{
		"server.self_ms":           {selfMean("server"), "ms"},
		"server.sweep_rows":        {c.SweepRows, "count"},
		"solve.calls":              {solveCalls, "count"},
		"solve.busy_ms":            {ms(solveBusy), "ms"},
		"solve.ms_per_call":        {perCall, "ms"},
		"gateway.self_ms":          {selfMean("gateway"), "ms"},
		"gateway.hop_ms":           {selfMean("forward"), "ms"},
		"gateway.routed":           {c.GatewayRouted, "count"},
		"gateway.retried":          {c.GatewayRetried, "count"},
		"gateway.redirected":       {c.GatewayRedirect, "count"},
		"fleet.request_skew":       {c.RequestSkew, "1"},
		"fleet.hit_rate_spread":    {c.HitRateSpread, "1"},
		"resultcache.lookups":      {lookups, "count"},
		"resultcache.hits":         {c.CacheHits, "count"},
		"resultcache.dedups":       {c.CacheDedups, "count"},
		"resultcache.computes":     {c.CacheComputes, "count"},
		"resultcache.evictions":    {c.CacheEvicts, "count"},
		"resultcache.hit_ratio":    {ratio(c.CacheHits, lookups), "1"},
		"engine.memo_requests":     {c.MemoRequests, "count"},
		"engine.memo_designs":      {c.MemoDesigns, "count"},
		"engine.memo_hit_ratio":    {ratio(c.MemoRequests-c.MemoDesigns, c.MemoRequests), "1"},
		"diskcache.gets":           {diskGets, "count"},
		"diskcache.hits":           {c.DiskHits, "count"},
		"diskcache.misses":         {c.DiskMisses, "count"},
		"diskcache.puts":           {c.DiskPuts, "count"},
		"diskcache.quarantined":    {c.DiskQuarantined, "count"},
		"diskcache.hit_ratio":      {ratio(c.DiskHits, diskGets), "1"},
		"disk.reads_per_op":        {float64(t.disk[diskcache.OpRead].Load()) / n, "1/op"},
		"disk.writes_per_op":       {float64(t.disk[diskcache.OpWrite].Load()) / n, "1/op"},
		"disk.renames_per_op":      {float64(t.disk[diskcache.OpRename].Load()) / n, "1/op"},
		"jobs.enqueued":            {c.JobsEnqueued, "count"},
		"jobs.completed":           {c.JobsCompleted, "count"},
		"jobs.retried":             {c.JobsRetried, "count"},
		"jobs.failed":              {c.JobsFailed, "count"},
		"jobs.first_row_ms":        {median(firstRows), "ms"},
		"runtime.heap_live_mb_end": {plain.heapLive, "MB"},
		"runtime.gc_cycles_per_op": {float64(plain.gcCycles) / n, "1/op"},
		// Traced over untraced wall time for the same slice: 1 is free.
		"trace.overhead_ratio": {traced.wall.Seconds() / untraced.Seconds(), "1"},
	}
}

// covered is how much of s's interval its children's intervals cover.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > curEnd {
			total += curEnd - curStart
			curStart, curEnd = a, b
		} else if b > curEnd {
			curEnd = b
		}
	}
	total += curEnd - curStart
	return time.Duration(total)
}

func writeSpans(buildDir, name string, seed int64, spans []span) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), data, 0o644)
}
