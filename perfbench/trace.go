package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quantumjoin/internal/anneal"
	"quantumjoin/internal/classical"
	"quantumjoin/internal/cluster"
	"quantumjoin/internal/core"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/sched"
	"quantumjoin/internal/service"
	"quantumjoin/internal/topology"
)

// span is one timed call into a layer, recorded by the benchmark.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Item   int64         `json:"item"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Err    string        `json:"err,omitempty"`
	Value  float64       `json:"value,omitempty"` // a count the call produced (qubits, parts, jobs)
	valid  bool          // the call produced a valid plan or sample
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	on    atomic.Bool  // false during warm-up and the untraced pass
	item  atomic.Int64 // the item being replayed, for spans with no parent
	next  atomic.Int64
	mu    sync.Mutex
	spans []*span
}

type spanKey struct{}

// start opens a span as a child of the span in ctx. With recording off it
// returns a detached span that end ignores.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *span) {
	if !r.on.Load() {
		return ctx, &span{ID: -1}
	}
	sp := &span{ID: r.next.Add(1), Name: name, Start: time.Since(r.t0), Item: r.item.Load()}
	if parent, ok := ctx.Value(spanKey{}).(*span); ok && parent.ID > 0 {
		sp.Parent, sp.Item = parent.ID, parent.Item
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (r *recorder) end(sp *span, err error) {
	if sp.ID < 0 {
		return
	}
	sp.End = time.Since(r.t0)
	if err != nil {
		sp.Err = err.Error()
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*span(nil), r.spans...)
}

// timeCall records fn as a span named name under ctx.
func (r *recorder) timeCall(ctx context.Context, name string, fn func(ctx context.Context) error) *span {
	ctx, sp := r.start(ctx, name)
	r.end(sp, fn(ctx))
	return sp
}

// perLayer lists every per-layer metric with its unit. A layer the
// workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"service.http_self_us_p50", "us"},
	{"service.optimize_overhead_us_p50", "us"},
	{"service.fingerprint_us_p50", "us"},
	{"service.cache_hit_share", "share"},
	{"service.cache_evictions", "count"},
	{"service.batch_us_per_item", "us"},
	{"service.degraded_count", "count"},
	{"service.shed_count", "count"},
	{"core.encode_ms_p50", "ms"},
	{"core.logical_qubits_mean", "qubits"},
	{"classical.dp_ms_p50", "ms"},
	{"classical.greedy_us_p50", "us"},
	{"qubo.tabu_ms_p50", "ms"},
	{"qubo.tabu_valid_share", "share"},
	{"minorembed.embed_ms_p50", "ms"},
	{"minorembed.embed_fail_share", "share"},
	{"anneal.sample_ms_p50", "ms"},
	{"anneal.valid_share", "share"},
	{"anneal.batch_ms_per_item", "ms"},
	{"qaoa.solve_ms_p50", "ms"},
	{"qaoa.refused_share", "share"},
	{"hybrid.orchestrate_ms_p50", "ms"},
	{"hybrid.overrun_ms_tail", "ms"},
	{"hybrid.exact_idle_ms_p50", "ms"},
	{"hybrid.candidate_valid_share", "share"},
	{"sched.decide_us_p50", "us"},
	{"sched.direct_share", "share"},
	{"decomp.solve_ms_p50", "ms"},
	{"decomp.parts_mean", "parts"},
	{"faults.retry_count", "count"},
	{"faults.breaker_trip_count", "count"},
	{"cluster.route_us_p50", "us"},
	{"cluster.forward_extra_ms_p50", "ms"},
	{"cluster.batch_forward_count", "count"},
	{"cluster.batch_fallback_count", "count"},
	{"trace.overhead_us_p50", "us"},
}

// tracer replays a workload in-process and records spans around the calls
// into each layer. Requests go through the same handler chain qjoind
// serves (a loopback fleet of cluster nodes for a multi-node workload);
// direct layer calls run on a separate probe stack so they never warm the
// serving stack's caches or train its scheduler.
type tracer struct {
	rec    *recorder
	entry  []*stack // serving stacks; requests enter at entry[k % len]
	probe  *stack
	mirror *service.EncodingCache // sees the serving cache's hit/miss sequence
	dev    *anneal.Device
	ring   *cluster.Ring
	health func(string) bool

	attempted, failed int
	outcomes          []hybridOutcome
}

// hybridOutcome condenses one hybrid.Backend.Orchestrate call.
type hybridOutcome struct {
	elapsed, overrun time.Duration
	exactAt          time.Duration // completion of the first exact (dp) candidate; -1 if none
	launched, valid  int
}

func summarise(o *hybrid.Outcome, elapsed, deadline time.Duration) hybridOutcome {
	h := hybridOutcome{elapsed: elapsed, overrun: elapsed - deadline, exactAt: -1}
	if o == nil {
		return h
	}
	for _, c := range o.Candidates {
		h.launched++
		if c.Err != nil || c.Decoded == nil {
			continue
		}
		h.valid++
		if c.Backend == "dp" && (h.exactAt < 0 || c.Elapsed < h.exactAt) {
			h.exactAt = c.Elapsed
		}
	}
	return h
}

func runTrace(ctx context.Context, w *workload, seconds int, outDir string) (*runResult, error) {
	rec := &recorder{t0: time.Now()}
	tr := &tracer{rec: rec, mirror: service.NewEncodingCache(256)}
	if w.nodes > 1 {
		fl, err := newFleet(w.nodes, rec)
		if err != nil {
			return nil, err
		}
		defer fl.close()
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		for _, u := range fl.urls {
			if err := poll(wctx, func() bool { return peersHealthy(wctx, u, w.nodes) }); err != nil {
				return nil, fmt.Errorf("%s never saw a healthy fleet: %w", u, err)
			}
		}
		tr.entry = fl.stacks
		tr.ring = fl.stacks[0].node.Ring()
		tr.health = fl.stacks[0].node.Gossip().Healthy
	} else {
		st, err := newStack(rec)
		if err != nil {
			return nil, err
		}
		tr.entry = []*stack{st}
	}
	probe, err := newStack(rec)
	if err != nil {
		return nil, err
	}
	tr.probe = probe
	g, _ := topology.Pegasus(6)
	tr.dev = anneal.NewDevice(g)
	tr.dev.BatchReads = 32

	// Warm-up and the untraced pass go through the serving path only.
	window := time.Duration(seconds) * time.Second
	cycle := w.rate == 0
	if _, _, err := tr.replay(ctx, w.warm, 0, w.warmup, cycle); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	untracedFor := window / 5
	plain, n0, err := tr.replay(ctx, w.ops, 0, untracedFor, cycle)
	if err != nil {
		return nil, err
	}
	// A closed loop replays the same operations again with recording on,
	// so each of them is timed both ways; an open-loop schedule moves on to
	// fresh operations and has no such pairs. The untraced pass was the
	// first send of most of its operations, and first sends were slower
	// than repeats, so a closed loop sends them once more untraced and
	// pairs that repeat with the traced send.
	from := n0
	if cycle {
		from = 0
		if plain, _, err = tr.replay(ctx, w.ops[:min(n0, len(w.ops))], 0, window, false); err != nil {
			return nil, err
		}
	}
	before := tr.snapshot()
	rec.on.Store(true)
	traced, _, err := tr.replay(ctx, w.ops, from, window-untracedFor, cycle)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	after := tr.snapshot()

	var pairs []float64
	if cycle {
		for k := 0; k < len(plain) && k < len(traced); k++ {
			pairs = append(pairs, traced[k]-plain[k])
		}
	}
	spans := rec.snapshot()
	res := tr.metrics(spans, pairs, before, after)
	res.record["overhead_pairs"] = len(pairs)
	res.record["spans"] = len(spans)
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s.json", w.name))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		res.record["spans_file"] = path
	}
	return res, nil
}

func writeSpans(path string, spans []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replay sends ops one at a time from index from for dur, cycling through
// them for a closed loop and stopping at the end of an open-loop schedule.
// With recording on, each op's layer probes run after it. It returns the
// serving-path latency of each op in microseconds and the index after the
// last op sent.
func (tr *tracer) replay(ctx context.Context, ops []*op, from int, dur time.Duration, cycle bool) ([]float64, int, error) {
	probes := tr.rec.on.Load()
	var lat []float64
	start := time.Now()
	k := from
	for time.Since(start) < dur && (cycle || k < len(ops)) {
		o := ops[k%len(ops)]
		tr.rec.item.Store(int64(k))
		us, err := tr.serve(ctx, o, tr.entry[k%len(tr.entry)])
		if err != nil {
			return nil, k, err
		}
		lat = append(lat, us)
		if probes {
			if err := tr.probeOp(ctx, o); err != nil {
				return nil, k, err
			}
		}
		k++
	}
	return lat, k, nil
}

// serve sends one op through a serving stack's handler and checks the
// answer as the untraced run does.
func (tr *tracer) serve(ctx context.Context, o *op, st *stack) (float64, error) {
	req := httptest.NewRequest("POST", o.path(), bytes.NewReader(o.body))
	rr := httptest.NewRecorder()
	hctx, sp := tr.rec.start(ctx, "http")
	t := time.Now()
	st.handler.ServeHTTP(rr, req.WithContext(hctx))
	us := float64(time.Since(t)) / float64(time.Microsecond)
	tr.rec.end(sp, nil)
	items := make([]itemResult, len(o.items))
	if err := checkAnswer(o, rr.Code, rr.Body.Bytes(), items); err != nil {
		return 0, fmt.Errorf("output check: %w", err)
	}
	if tr.rec.on.Load() {
		tr.attempted += len(o.items)
		for _, ir := range items {
			if ir.status < 200 || ir.status >= 300 {
				tr.failed++
			}
		}
	}
	return us, nil
}

// request builds the service request an item's body decodes to.
func request(it *item) *service.Request {
	return &service.Request{
		Query:   it.q,
		Backend: it.req.Backend,
		Params: service.Params{
			Seed:   it.req.Seed,
			Hybrid: service.HybridParams{Strategy: it.req.Strategy},
		},
		Timeout: time.Duration(it.req.TimeoutMs) * time.Millisecond,
		Lean:    it.req.Lean,
	}
}

// probeOp times the direct calls into each layer an op's items exercise,
// on the probe stack. Spans of one item share its id.
func (tr *tracer) probeOp(ctx context.Context, o *op) error {
	rec := tr.rec
	spec := service.EncodeSpec{}
	encs := make([]*core.Encoding, len(o.items))
	for i, it := range o.items {
		var key string
		rec.timeCall(ctx, "service.fingerprint", func(context.Context) error {
			key, _ = service.Fingerprint(it.q, spec)
			return nil
		})
		if tr.ring != nil {
			rec.timeCall(ctx, "cluster.route", func(context.Context) error {
				tr.ring.ReplicasHealthy(key, 2, tr.health)
				return nil
			})
		}
		if it.req.Backend == decomp.Name {
			continue // query-level backends bypass the encoding cache
		}
		var hit bool
		sp := rec.timeCall(ctx, "cache.encoding", func(context.Context) error {
			var err error
			encs[i], _, _, hit, err = tr.mirror.Encoding(it.q, spec)
			return err
		})
		if sp.Err != "" {
			return fmt.Errorf("encoding: %s", sp.Err)
		}
		sp = rec.timeCall(ctx, "core.encode", func(ctx context.Context) error {
			if hit {
				return nil // a cache hit encodes nothing
			}
			_, err := core.EncodeContext(ctx, it.q, core.Options{Thresholds: core.DefaultThresholds(it.q, 3), Omega: 1})
			return err
		})
		sp.Value = float64(encs[i].NumQubits())
	}

	if o.batch {
		reqs := make([]*service.Request, len(o.items))
		for i, it := range o.items {
			reqs[i] = request(it)
		}
		sp := rec.timeCall(ctx, "service.batch", func(ctx context.Context) error {
			tr.probe.svc.OptimizeBatch(ctx, reqs, o.timeout)
			return nil
		})
		sp.Value = float64(len(reqs))
		var jobs []anneal.BatchJob
		for i, it := range o.items {
			if it.req.Backend == "anneal" {
				jobs = append(jobs, anneal.BatchJob{Q: encs[i].QUBO, Reads: 500, AnnealTimeMicros: 20, Seed: it.req.Seed})
			}
		}
		if len(jobs) > 0 {
			sp := rec.timeCall(ctx, "anneal.batch", func(ctx context.Context) error {
				_, errs := tr.dev.SampleBatchContext(ctx, jobs)
				return errors.Join(errs...)
			})
			sp.Value = float64(len(jobs))
		}
	}

	for i, it := range o.items {
		timeout := time.Duration(it.req.TimeoutMs) * time.Millisecond
		if o.batch {
			timeout = o.timeout
		}
		if !o.batch {
			rec.timeCall(ctx, "optimize", func(ctx context.Context) error {
				_, err := tr.probe.svc.Optimize(ctx, request(it))
				return err
			})
		}
		if it.q.NumRelations() <= dpLimit {
			rec.timeCall(ctx, "classical.dp", func(ctx context.Context) error {
				_, err := classical.OptimalContext(ctx, it.q)
				return err
			})
		}
		rec.timeCall(ctx, "classical.greedy", func(context.Context) error {
			classical.Greedy(it.q)
			return nil
		})
		tr.probeBackend(ctx, it, encs[i], timeout)
	}
	return nil
}

// probeBackend times the calls inside the item's backend that the service
// path cannot expose: the annealer's embed and sample steps, hybrid
// orchestration with its candidates, the scheduler's decision, and the
// decomposition solve.
func (tr *tracer) probeBackend(ctx context.Context, it *item, enc *core.Encoding, timeout time.Duration) {
	rec := tr.rec
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	switch it.req.Backend {
	case "anneal":
		var emb *minorembed.Embedding
		sp := rec.timeCall(dctx, "minorembed.embed", func(ctx context.Context) error {
			var err error
			emb, err = tr.dev.EmbedOnlyContext(ctx, enc.QUBO, it.req.Seed)
			return err
		})
		if sp.Err != "" {
			return
		}
		var valid bool
		sp = rec.timeCall(dctx, "anneal.sample", func(ctx context.Context) error {
			res, err := tr.dev.SampleEmbeddedContext(ctx, enc.QUBO, emb, 500, 20, it.req.Seed)
			if err != nil {
				return err
			}
			_, _, valid = enc.BestValid(res.Assignments)
			return nil
		})
		sp.valid = valid
	case "hybrid":
		p := service.Params{Seed: it.req.Seed, Hybrid: service.HybridParams{Strategy: it.req.Strategy}}
		if it.req.Strategy == "learned" {
			rec.timeCall(ctx, "sched.decide", func(context.Context) error {
				tr.probe.router.Decide(it.q, sched.Context{Budget: timeout, Parts: 1})
				return nil
			})
		}
		var out *hybrid.Outcome
		sp := rec.timeCall(dctx, "hybrid.orchestrate", func(ctx context.Context) error {
			var err error
			out, err = tr.probe.hybrid.Orchestrate(ctx, enc, p)
			return err
		})
		tr.outcomes = append(tr.outcomes, summarise(out, sp.dur(), timeout))
	case decomp.Name:
		sp := rec.timeCall(dctx, "decomp.solve", func(ctx context.Context) error {
			_, err := tr.probe.decomp.SolveQuery(ctx, it.q, service.EncodeSpec{}, service.Params{Seed: it.req.Seed})
			return err
		})
		if part, err := decomp.PartitionQuery(it.q, 12); err == nil {
			sp.Value = float64(len(part.Parts))
		}
	}
}

// counterSet is the serving stacks' program counters at one instant.
type counterSet struct {
	metrics []service.Snapshot
	sched   []sched.SnapshotCounters
	cluster []cluster.Counters
}

func (tr *tracer) snapshot() counterSet {
	var c counterSet
	for _, st := range tr.entry {
		c.metrics = append(c.metrics, st.svc.MetricsSnapshot())
		c.sched = append(c.sched, st.router.Snapshot().Counters)
		if st.node != nil {
			c.cluster = append(c.cluster, st.node.Counters())
		}
	}
	return c
}

// delta sums f(after) - f(before) over the serving stacks.
func delta[T any](before, after []T, f func(T) int64) float64 {
	total := int64(0)
	for i := range after {
		total += f(after[i]) - f(before[i])
	}
	return float64(total)
}

func p50(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

func ratio(k, n float64) float64 {
	if n == 0 {
		return 0
	}
	return k / n
}

// metrics turns the recorded spans and counter deltas into the per-layer
// metrics. overhead holds, per operation timed both ways, its traced minus
// its untraced serving-path latency in microseconds.
func (tr *tracer) metrics(spans []*span, overhead []float64, before, after counterSet) *runResult {
	byName := map[string][]*span{}
	byItem := map[int64]map[string][]*span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if byItem[sp.Item] == nil {
			byItem[sp.Item] = map[string][]*span{}
		}
		byItem[sp.Item][sp.Name] = append(byItem[sp.Item][sp.Name], sp)
	}
	durs := func(name string) []time.Duration {
		var ds []time.Duration
		for _, sp := range byName[name] {
			ds = append(ds, sp.dur())
		}
		return ds
	}
	solved := func(name string) []time.Duration { // calls that returned without error
		var ds []time.Duration
		for _, sp := range byName[name] {
			if sp.Err == "" {
				ds = append(ds, sp.dur())
			}
		}
		return ds
	}
	validShare := func(name string, valid func(*span) bool) float64 {
		k := 0
		for _, sp := range byName[name] {
			if valid(sp) {
				k++
			}
		}
		return ratio(float64(k), float64(len(byName[name])))
	}
	perValue := func(name string) []time.Duration {
		var ds []time.Duration
		for _, sp := range byName[name] {
			if sp.Value > 0 {
				ds = append(ds, time.Duration(float64(sp.dur())/sp.Value))
			}
		}
		return ds
	}
	meanValue := func(name string) float64 {
		sum := 0.0
		for _, sp := range byName[name] {
			sum += sp.Value
		}
		return ratio(sum, float64(len(byName[name])))
	}

	// Per-item differences between paired spans.
	var httpSelf, optOverhead, forwardExtra []time.Duration
	for _, spans := range byItem {
		httpSp, opt := spans["http"], spans["optimize"]
		if len(httpSp) == 1 && len(opt) == 1 {
			httpSelf = append(httpSelf, httpSp[0].dur()-opt[0].dur())
			rest := opt[0].dur()
			for _, enc := range spans["cache.encoding"] {
				rest -= enc.dur()
			}
			for name, ss := range spans {
				if !strings.HasPrefix(name, "solve:") {
					continue
				}
				for _, sp := range ss {
					if sp.Parent == opt[0].ID {
						rest -= sp.dur()
					}
				}
			}
			optOverhead = append(optOverhead, rest)
		}
		if len(httpSp) == 1 && len(spans["service.handler"]) > 0 {
			longest := time.Duration(0)
			for _, sp := range spans["service.handler"] {
				longest = max(longest, sp.dur())
			}
			forwardExtra = append(forwardExtra, httpSp[0].dur()-longest)
		}
	}

	var orchestrate, overrun, idle []time.Duration
	launched, valid := 0, 0
	for _, o := range tr.outcomes {
		orchestrate = append(orchestrate, o.elapsed)
		overrun = append(overrun, o.overrun)
		if o.exactAt >= 0 {
			idle = append(idle, o.elapsed-o.exactAt)
		}
		launched += o.launched
		valid += o.valid
	}
	overrunTail := 0.0
	if len(overrun) > 0 {
		ms := make([]float64, len(overrun))
		for i, d := range overrun {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		sort.Float64s(ms)
		p := tailPercentile(len(ms), []float64{50, 75, 90, 95, 99})
		if p == 0 {
			overrunTail = ms[len(ms)-1]
		} else {
			overrunTail, _ = percentile(ms, p)
		}
	}

	m, c := before.metrics, after.metrics
	hits := delta(m, c, func(s service.Snapshot) int64 { return s.Cache.Hits })
	misses := delta(m, c, func(s service.Snapshot) int64 { return s.Cache.Misses })
	grown := delta(m, c, func(s service.Snapshot) int64 { return int64(s.Cache.Size) })
	sumBackends := func(s service.Snapshot, f func(service.BackendSnapshot) int64) int64 {
		total := int64(0)
		for _, b := range s.Backends {
			total += f(b)
		}
		return total
	}
	trips := func(s service.Snapshot) int64 {
		return sumBackends(s, func(b service.BackendSnapshot) int64 {
			if b.Breaker == nil {
				return 0
			}
			return b.Breaker.Trips
		})
	}
	retries := func(s service.Snapshot) int64 {
		return sumBackends(s, func(b service.BackendSnapshot) int64 { return b.Retries })
	}

	values := map[string]float64{
		"service.http_self_us_p50":         p50(httpSelf, time.Microsecond),
		"service.optimize_overhead_us_p50": p50(optOverhead, time.Microsecond),
		"service.fingerprint_us_p50":       p50(durs("service.fingerprint"), time.Microsecond),
		"service.cache_hit_share":          ratio(hits, hits+misses),
		"service.cache_evictions":          misses - grown,
		"service.batch_us_per_item":        p50(perValue("service.batch"), time.Microsecond),
		"service.degraded_count":           delta(m, c, func(s service.Snapshot) int64 { return s.Requests.Degraded }),
		"service.shed_count":               delta(m, c, func(s service.Snapshot) int64 { return s.Requests.Shed }),
		"core.encode_ms_p50":               p50(durs("core.encode"), time.Millisecond),
		"core.logical_qubits_mean":         meanValue("core.encode"),
		"classical.dp_ms_p50":              p50(durs("classical.dp"), time.Millisecond),
		"classical.greedy_us_p50":          p50(durs("classical.greedy"), time.Microsecond),
		"qubo.tabu_ms_p50":                 p50(durs("solve:tabu"), time.Millisecond),
		"qubo.tabu_valid_share":            validShare("solve:tabu", func(sp *span) bool { return sp.valid }),
		"minorembed.embed_ms_p50":          p50(durs("minorembed.embed"), time.Millisecond),
		"minorembed.embed_fail_share":      validShare("minorembed.embed", func(sp *span) bool { return sp.Err != "" }),
		"anneal.sample_ms_p50":             p50(durs("anneal.sample"), time.Millisecond),
		"anneal.valid_share":               validShare("anneal.sample", func(sp *span) bool { return sp.valid }),
		"anneal.batch_ms_per_item":         p50(perValue("anneal.batch"), time.Millisecond),
		"qaoa.solve_ms_p50":                p50(solved("solve:qaoa"), time.Millisecond),
		"qaoa.refused_share":               validShare("solve:qaoa", func(sp *span) bool { return strings.Contains(sp.Err, "statevector budget") }),
		"hybrid.orchestrate_ms_p50":        p50(orchestrate, time.Millisecond),
		"hybrid.overrun_ms_tail":           overrunTail,
		"hybrid.exact_idle_ms_p50":         p50(idle, time.Millisecond),
		"hybrid.candidate_valid_share":     ratio(float64(valid), float64(launched)),
		"sched.decide_us_p50":              p50(durs("sched.decide"), time.Microsecond),
		"sched.direct_share": ratio(
			delta(before.sched, after.sched, func(s sched.SnapshotCounters) int64 { return s.Direct }),
			delta(before.sched, after.sched, func(s sched.SnapshotCounters) int64 { return s.Decisions })),
		"decomp.solve_ms_p50":          p50(durs("decomp.solve"), time.Millisecond),
		"decomp.parts_mean":            meanValue("decomp.solve"),
		"faults.retry_count":           delta(m, c, retries),
		"faults.breaker_trip_count":    delta(m, c, trips),
		"cluster.route_us_p50":         p50(durs("cluster.route"), time.Microsecond),
		"cluster.forward_extra_ms_p50": p50(forwardExtra, time.Millisecond),
		"cluster.batch_forward_count":  delta(before.cluster, after.cluster, func(c cluster.Counters) int64 { return c.BatchForwards }),
		"cluster.batch_fallback_count": delta(before.cluster, after.cluster, func(c cluster.Counters) int64 { return c.BatchFallbacks }),
		"trace.overhead_us_p50":        median(overhead),
	}
	res := &runResult{
		metrics:   map[string]metric{},
		attempted: tr.attempted,
		failed:    tr.failed,
		record:    map[string]any{"should_move": shouldMove},
	}
	for _, l := range perLayer {
		res.metrics[l.name] = metric{values[l.name], l.unit}
	}
	return res
}

// shouldMove states, for each per-layer metric, the end-to-end metric it
// should move and on which workload (and where it should not).
var shouldMove = map[string]string{
	"service.http_self_us_p50":         "latency_p50_ms on deadline-mix (fleet-batch sends only batches)",
	"service.optimize_overhead_us_p50": "latency_p50_ms on deadline-mix",
	"service.fingerprint_us_p50":       "throughput_rps on fleet-batch",
	"service.cache_hit_share":          "throughput_rps on fleet-batch (about 1 there, about 0 on deadline-mix)",
	"service.cache_evictions":          "peak_rss_mb on deadline-mix (0 on fleet-batch)",
	"service.batch_us_per_item":        "throughput_rps on fleet-batch",
	"service.degraded_count":           "degraded_share on deadline-mix, fleet-batch",
	"service.shed_count":               "error_share on deadline-mix, fleet-batch",
	"core.encode_ms_p50":               "latency_p50_ms on deadline-mix (about 0 on fleet-batch)",
	"core.logical_qubits_mean":         "latency_p50_ms on deadline-mix",
	"classical.dp_ms_p50":              "deadline_miss_share, plan_cost_ratio on deadline-mix",
	"classical.greedy_us_p50":          "deadline_miss_share, plan_cost_ratio on deadline-mix",
	"qubo.tabu_ms_p50":                 "throughput_rps, latency_p50_ms on fleet-batch",
	"qubo.tabu_valid_share":            "degraded_share, plan_cost_ratio on fleet-batch",
	"minorembed.embed_ms_p50":          "throughput_rps, latency_p50_ms on fleet-batch",
	"minorembed.embed_fail_share":      "degraded_share on fleet-batch",
	"anneal.sample_ms_p50":             "throughput_rps, latency_p50_ms on fleet-batch",
	"anneal.valid_share":               "degraded_share, plan_cost_ratio on fleet-batch",
	"anneal.batch_ms_per_item":         "throughput_rps on fleet-batch",
	"qaoa.solve_ms_p50":                "throughput_rps on fleet-batch",
	"qaoa.refused_share":               "degraded_share on deadline-mix (0 on fleet-batch, whose qaoa items fit the budget)",
	"hybrid.orchestrate_ms_p50":        "deadline_miss_share, latency_tail_ms on deadline-mix",
	"hybrid.overrun_ms_tail":           "deadline_miss_share, latency_tail_ms on deadline-mix",
	"hybrid.exact_idle_ms_p50":         "latency_p50_ms on deadline-mix",
	"hybrid.candidate_valid_share":     "plan_cost_ratio, degraded_share on deadline-mix",
	"sched.decide_us_p50":              "throughput_rps on deadline-mix",
	"sched.direct_share":               "throughput_rps on deadline-mix",
	"decomp.solve_ms_p50":              "latency_tail_ms on deadline-mix",
	"decomp.parts_mean":                "latency_tail_ms on deadline-mix",
	"faults.retry_count":               "degraded_share on deadline-mix",
	"faults.breaker_trip_count":        "degraded_share on deadline-mix",
	"cluster.route_us_p50":             "latency_p50_ms on fleet-batch",
	"cluster.forward_extra_ms_p50":     "latency_p50_ms on fleet-batch",
	"cluster.batch_forward_count":      "error_share, throughput_rps on fleet-batch",
	"cluster.batch_fallback_count":     "error_share, throughput_rps on fleet-batch",
	"trace.overhead_us_p50":            "none: the cost of the benchmark's own spans on the serving path",
}
