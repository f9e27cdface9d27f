package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quantumjoin/internal/cluster"
	"quantumjoin/internal/sched"
	"quantumjoin/internal/service"
)

// setupReps is how many times a run launches its qjoind deployment;
// setup_s is the median, and the last launch serves the load.
const setupReps = 15

// deployment is a set of running qjoind processes.
type deployment struct {
	urls  []string
	cmds  []*exec.Cmd
	argvs [][]string
}

// launch starts w.nodes qjoind processes on free loopback ports and waits
// until every /healthz answers ok and, for a fleet, every node's
// /v1/cluster shows every peer healthy after a successful probe. It returns the elapsed set-up time.
func launch(ctx context.Context, bin string, w *workload) (*deployment, time.Duration, error) {
	d := &deployment{}
	for i := 0; i < w.nodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		d.urls = append(d.urls, "http://"+l.Addr().String())
		l.Close()
	}
	start := time.Now()
	for _, u := range d.urls {
		args := []string{"-addr", strings.TrimPrefix(u, "http://"), "-log-level", "warn"}
		if w.nodes > 1 {
			args = append(args, "-self", u, "-peers", strings.Join(d.urls, ","))
		}
		args = append(args, w.flags...)
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = nil, nil
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("start qjoind: %w", err)
		}
		d.cmds = append(d.cmds, cmd)
		d.argvs = append(d.argvs, append([]string{"qjoind"}, args...))
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, u := range d.urls {
		if err := poll(ctx, func() bool {
			var h struct{ Status string }
			return getJSON(ctx, u+"/healthz", &h) == nil && h.Status == "ok"
		}); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("%s never became healthy: %w", u, err)
		}
	}
	if w.nodes > 1 {
		for _, u := range d.urls {
			if err := poll(ctx, func() bool { return peersHealthy(ctx, u, w.nodes) }); err != nil {
				d.stop()
				return nil, 0, fmt.Errorf("%s never saw a healthy fleet: %w", u, err)
			}
		}
	}
	return d, time.Since(start), nil
}

// peersHealthy reports whether the fleet node at url shows all its other
// nodes healthy after a successful probe.
func peersHealthy(ctx context.Context, url string, nodes int) bool {
	var st cluster.StatusResponse
	if getJSON(ctx, url+"/v1/cluster", &st) != nil || len(st.Peers) != nodes-1 {
		return false
	}
	for _, p := range st.Peers {
		if !p.Healthy || p.Status != "ok" {
			return false
		}
	}
	return true
}

// pollStep is short next to a single node's set-up time (about 10 ms), so
// the polling grid adds little to setup_s.
const pollStep = 100 * time.Microsecond

func poll(ctx context.Context, ready func() bool) error {
	for !ready() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollStep):
		}
	}
	return nil
}

// stop kills every process and waits for it to exit.
func (d *deployment) stop() {
	for _, c := range d.cmds {
		_ = c.Process.Kill() // an already exited process is fine
	}
	for _, c := range d.cmds {
		_ = c.Wait() // the exit status of a killed process says nothing
	}
	d.cmds = nil
}

// peakRSSMB sums VmHWM over the deployment's processes.
func (d *deployment) peakRSSMB() (float64, error) {
	total := 0.0
	for _, c := range d.cmds {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb := -1.0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err = strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err != nil {
					f.Close()
					return 0, fmt.Errorf("parse VmHWM: %w", err)
				}
			}
		}
		f.Close()
		if kb < 0 {
			return 0, fmt.Errorf("no VmHWM for pid %d", c.Process.Pid)
		}
		total += kb / 1024
	}
	return total, nil
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters are the program's own counters of one node, read before and
// after the timed window.
type counters struct {
	Metrics service.Snapshot        `json:"metrics"`
	Cluster *cluster.StatusResponse `json:"cluster,omitempty"`
	Sched   sched.Snapshot          `json:"sched"`
}

func readCounters(ctx context.Context, d *deployment) ([]counters, error) {
	out := make([]counters, len(d.urls))
	for i, u := range d.urls {
		if err := getJSON(ctx, u+"/metrics.json", &out[i].Metrics); err != nil {
			return nil, err
		}
		if err := getJSON(ctx, u+"/v1/sched", &out[i].Sched); err != nil {
			return nil, err
		}
		if len(d.urls) > 1 {
			out[i].Cluster = new(cluster.StatusResponse)
			if err := getJSON(ctx, u+"/v1/cluster", out[i].Cluster); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// counterDelta sums the window's change in the counters the benchmark
// records beside its result.
func counterDelta(before, after []counters) map[string]int64 {
	out := map[string]int64{}
	for i := range before {
		b, a := before[i], after[i]
		out["requests"] += a.Metrics.Requests.Total - b.Metrics.Requests.Total
		out["errors"] += a.Metrics.Requests.Errors - b.Metrics.Requests.Errors
		out["shed"] += a.Metrics.Requests.Shed - b.Metrics.Requests.Shed
		out["degraded"] += a.Metrics.Requests.Degraded - b.Metrics.Requests.Degraded
		out["batch_items"] += a.Metrics.Batch.Items - b.Metrics.Batch.Items
		out["cache_hits"] += a.Metrics.Cache.Hits - b.Metrics.Cache.Hits
		out["cache_misses"] += a.Metrics.Cache.Misses - b.Metrics.Cache.Misses
		grown := int64(a.Metrics.Cache.Size - b.Metrics.Cache.Size)
		out["cache_evictions"] += a.Metrics.Cache.Misses - b.Metrics.Cache.Misses - grown
		for name, ab := range a.Metrics.Backends {
			bb := b.Metrics.Backends[name]
			out["retries"] += ab.Retries - bb.Retries
			if ab.Breaker != nil {
				var was int64
				if bb.Breaker != nil {
					was = bb.Breaker.Trips
				}
				out["breaker_trips"] += ab.Breaker.Trips - was
			}
		}
		out["sched_decisions"] += a.Sched.Counters.Decisions - b.Sched.Counters.Decisions
		out["sched_direct"] += a.Sched.Counters.Direct - b.Sched.Counters.Direct
		if a.Cluster != nil && b.Cluster != nil {
			out["batch_forwards"] += a.Cluster.Counters.BatchForwards - b.Cluster.Counters.BatchForwards
			out["batch_fallbacks"] += a.Cluster.Counters.BatchFallbacks - b.Cluster.Counters.BatchFallbacks
			out["batch_splits"] += a.Cluster.Counters.BatchSplits - b.Cluster.Counters.BatchSplits
		}
	}
	return out
}

// envelopesSpanningFleet returns the share of batch operations whose items'
// primary owners, on the fleet's consistent-hash ring, include every node.
func envelopesSpanningFleet(urls []string, res []opResult) (float64, error) {
	ring, err := cluster.NewRing(urls, cluster.DefaultVirtualNodes)
	if err != nil {
		return 0, err
	}
	spanning := 0
	for _, r := range res {
		owners := map[string]bool{}
		for _, it := range r.op.items {
			key, _ := service.Fingerprint(it.q, service.EncodeSpec{})
			owners[ring.Replicas(key, 1)[0]] = true
		}
		if len(owners) == len(urls) {
			spanning++
		}
	}
	return ratio(float64(spanning), float64(len(res))), nil
}

// cellStats counts one workload cell's items in the timed window.
type cellStats struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Degraded  int `json:"degraded"`
	Missed    int `json:"missed"`
	// LatencyP50Ms and OverrunMaxMs describe the cell's latency against
	// its timeout (overrun = latency - timeout).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	OverrunMaxMs float64 `json:"overrun_max_ms"`
	lat          []float64
	timeout      time.Duration
}

// itemResult is what one item's answer said.
type itemResult struct {
	status   int
	degraded bool
	cost     float64
	key      string
}

// opResult is one operation as the load generator saw it.
type opResult struct {
	op      *op
	latency time.Duration // from the scheduled send time for open loops
	late    time.Duration // open loops: how late the generator sent it
	items   []itemResult
	err     error // a failed output check
}

// client is one load-generating connection to one entry node.
type client struct {
	url string
	hc  *http.Client
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one operation and checks its answer.
func (c *client) do(ctx context.Context, o *op) opResult {
	res := opResult{op: o, items: make([]itemResult, len(o.items))}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+o.path(), bytes.NewReader(o.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return res // transport error: every item keeps status 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return res
	}
	res.err = checkAnswer(o, resp.StatusCode, body, res.items)
	return res
}

// checkAnswer fills one itemResult per item from an HTTP answer and
// verifies every 2xx plan: a permutation of the request's relations,
// whose reported cost equals join.Query.Cost of that order and is no
// better than the DP optimum. Batch results must line up with their items.
func checkAnswer(o *op, status int, body []byte, out []itemResult) error {
	if !o.batch {
		if status < 200 || status >= 300 {
			out[0] = itemResult{status: status}
			return nil
		}
		var r service.OptimizeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		out[0] = itemResult{status: status, degraded: r.Degraded, cost: r.Cost, key: r.CacheKey}
		return checkPlan(o.items[0], &r)
	}
	if status < 200 || status >= 300 {
		for i := range o.items {
			out[i] = itemResult{status: status}
		}
		return nil
	}
	var br service.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return fmt.Errorf("decode batch response: %w", err)
	}
	if len(br.Results) != len(o.items) || br.Items != len(o.items) {
		return fmt.Errorf("batch of %d items answered with %d results (items=%d)", len(o.items), len(br.Results), br.Items)
	}
	for i, it := range o.items {
		r := br.Results[i]
		if r.Response == nil {
			out[i] = itemResult{status: r.Status}
			continue
		}
		out[i] = itemResult{status: status, degraded: r.Response.Degraded, cost: r.Response.Cost, key: r.Response.CacheKey}
		if err := checkPlan(it, r.Response); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

func checkPlan(it *item, r *service.OptimizeResponse) error {
	n := it.q.NumRelations()
	if len(r.Order) != n {
		return fmt.Errorf("order has %d relations, query has %d", len(r.Order), n)
	}
	order := make([]int, n)
	seen := make([]bool, n)
	for i, name := range r.Order {
		t, ok := it.pos[name]
		if !ok || seen[t] {
			return fmt.Errorf("order %v is not a permutation of the request's relations", r.Order)
		}
		seen[t] = true
		order[i] = t
	}
	want := it.q.Cost(order)
	if math.Abs(r.Cost-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("reported cost %v, but the order costs %v", r.Cost, want)
	}
	if it.opt > 0 && r.Cost < it.opt*(1-1e-9) {
		return fmt.Errorf("cost %v beats the DP optimum %v", r.Cost, it.opt)
	}
	if r.CacheKey == "" {
		return errors.New("empty cache_key")
	}
	return nil
}

// drive runs ops against the deployment for the given duration and
// returns every operation started in that time with its answer. Closed
// loops cycle ops over w.clients connections; open loops send ops in
// order at w.rate, each connection taking the next due one.
func drive(ctx context.Context, d *deployment, w *workload, ops []*op, dur time.Duration) ([]opResult, time.Duration) {
	var next atomic.Int64
	results := make([][]opResult, w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < w.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(d.urls[ci%len(d.urls)])
			defer c.hc.CloseIdleConnections()
			for {
				k := int(next.Add(1) - 1)
				if w.rate > 0 {
					if k >= len(ops) {
						return
					}
					due := start.Add(time.Duration(float64(k) / w.rate * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					sent := time.Now()
					r := c.do(ctx, ops[k])
					r.latency = time.Since(due)
					r.late = sent.Sub(due)
					results[ci] = append(results[ci], r)
					continue
				}
				if time.Since(start) >= dur {
					return
				}
				sent := time.Now()
				r := c.do(ctx, ops[k%len(ops)])
				r.latency = time.Since(sent)
				results[ci] = append(results[ci], r)
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all, elapsed
}

// runResult is one run's metrics plus what the benchmark records beside
// them.
type runResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	record    map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runE2E(ctx context.Context, bin string, w *workload, seconds int) (*runResult, error) {
	var setups []float64
	var d *deployment
	for rep := 0; rep < setupReps; rep++ {
		dep, took, err := launch(ctx, bin, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if rep < setupReps-1 {
			dep.stop()
			continue
		}
		d = dep
	}
	defer d.stop()

	// Warm-up: caches fill, lazy set-up finishes, and the learned router
	// sees traffic before anything is timed.
	warmRes, _ := drive(ctx, d, w, w.warm, w.warmup)
	for _, r := range warmRes {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	before, err := readCounters(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}
	res, elapsed := drive(ctx, d, w, w.ops, time.Duration(seconds)*time.Second)
	after, err := readCounters(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}

	// The timed window restarts at the first operation the warm-up sent, so
	// checking both together compares resent requests' cache keys.
	splitShapes, err := checkCacheKeys(append(warmRes, res...))
	if err != nil {
		return nil, err
	}
	t := tallyResults(res)
	if t.ok == 0 {
		return nil, errors.New("no item was answered 2xx")
	}
	lat, late := t.lat, t.late
	sort.Float64s(lat)
	sort.Float64s(late)
	tailMs, beyond, err := tail(lat, w.tailPct)
	if err != nil {
		return nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	p50, _ := percentile(lat, 50)
	// The record keeps the latency curve around the fixed tail percentile,
	// so a shift in the tail can be told from a shift of the whole curve.
	ladder := map[string]float64{}
	for _, p := range []float64{50, 75, 80, 85, 90, 95, 98} {
		ladder[fmt.Sprintf("p%g", p)], _ = percentile(lat, p)
	}
	lateP50, _ := percentile(late, 50)
	out := &runResult{
		attempted: t.attempted,
		failed:    t.failed,
		metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"throughput_rps":      {float64(t.ok) / elapsed.Seconds(), "items/s"},
			"latency_p50_ms":      {p50, "ms"},
			"latency_tail_ms":     {tailMs, "ms"},
			"plan_cost_ratio":     {geoMean(t.ratios), "ratio"},
			"deadline_miss_share": {share(t.missed, t.attempted), "share"},
			"degraded_share":      {share(t.degraded, t.ok), "share"},
			"error_share":         {share(t.attempted-t.ok, t.attempted), "share"},
			"peak_rss_mb":         {rss, "MB"},
		},
		record: map[string]any{
			"qjoind_argv":            d.argvs,
			"setup_s_each":           setups,
			"operations":             len(res),
			"window_s":               elapsed.Seconds(),
			"tail_percentile":        w.tailPct,
			"tail_samples_beyond":    beyond,
			"latency_samples":        len(lat),
			"latency_ladder_ms":      ladder,
			"items_2xx":              t.ok,
			"items_missed":           t.missed,
			"items_degraded":         t.degraded,
			"items_failed":           t.failed,
			"items_not_scored":       t.notScored,
			"deadline_grace_ms":      float64(grace) / float64(time.Millisecond),
			"counters":               counterDelta(before, after),
			"cache_key_split_shapes": splitShapes,
			"cells":                  t.cells,
			"overrun_ms_edges":       overrunEdgesMs,
			"overrun_items":          t.overrun,
		},
	}
	if w.nodes > 1 {
		spanning, err := envelopesSpanningFleet(d.urls, res)
		if err != nil {
			return nil, err
		}
		out.record["envelopes_spanning_all_nodes"] = spanning
	}
	if w.rate > 0 {
		out.record["open_loop_rate"] = w.rate
		out.record["generator_late_p50_ms"] = lateP50
		out.record["generator_late_max_ms"] = late[len(late)-1]
	}
	return out, nil
}

// checkCacheKeys applies the output checks that span operations: a resent
// request must come back under the cache key it got before. A relabelling
// of the same shape should too, since the fingerprint is meant to be
// permutation-invariant; shapes where it is not are counted, not failed,
// because their plans stay correct. Any per-operation check failure is
// returned first.
func checkCacheKeys(res []opResult) (splitShapes int, err error) {
	keys := map[*item]string{}
	shapeKeys := map[int]map[string]bool{}
	for _, r := range res {
		if r.err != nil {
			return 0, fmt.Errorf("output check: %s %s: %w", r.op.path(), r.op.body[:min(len(r.op.body), 120)], r.err)
		}
		for i, ir := range r.items {
			it := r.op.items[i]
			if ir.key == "" {
				continue
			}
			if k, ok := keys[it]; ok && k != ir.key {
				return 0, fmt.Errorf("output check: one request answered under cache keys %s and %s", k, ir.key)
			}
			keys[it] = ir.key
			if it.shape >= 0 {
				if shapeKeys[it.shape] == nil {
					shapeKeys[it.shape] = map[string]bool{}
				}
				shapeKeys[it.shape][ir.key] = true
			}
		}
	}
	for _, ks := range shapeKeys {
		if len(ks) > 1 {
			splitShapes++
		}
	}
	return splitShapes, nil
}

// overrunEdgesMs bound the buckets of the recorded overrun histogram
// (answer latency minus the item's deadline).
var overrunEdgesMs = []float64{0, 2, 5, 10, 25, 50, 100}

// tally counts a window's items by outcome.
type tally struct {
	attempted, ok, failed, missed, degraded, notScored int
	overrun                                            []int     // items per overrunEdgesMs bucket, plus one beyond the last edge
	lat, late, ratios                                  []float64 // per-operation latency and lateness (ms), per-item cost ratio
	cells                                              map[string]*cellStats
}

func tallyResults(res []opResult) tally {
	t := tally{cells: map[string]*cellStats{}, overrun: make([]int, len(overrunEdgesMs)+1)}
	for _, r := range res {
		ms := float64(r.latency) / float64(time.Millisecond)
		t.lat = append(t.lat, ms)
		t.late = append(t.late, float64(r.late)/float64(time.Millisecond))
		for i, ir := range r.items {
			it := r.op.items[i]
			o := outcome{status: ir.status, latency: r.latency, timeout: r.op.timeout}
			c := t.cells[it.cell()]
			if c == nil {
				c = &cellStats{timeout: r.op.timeout}
				t.cells[it.cell()] = c
			}
			t.attempted++
			c.Attempted++
			over := float64(r.latency-r.op.timeout) / float64(time.Millisecond)
			b := 0
			for b < len(overrunEdgesMs) && over > overrunEdgesMs[b] {
				b++
			}
			t.overrun[b]++
			c.lat = append(c.lat, ms)
			if o.missed(grace) {
				t.missed++
				c.Missed++
			}
			if !o.ok() {
				t.failed++
				continue
			}
			t.ok++
			c.OK++
			if ir.degraded {
				t.degraded++
				c.Degraded++
			}
			if it.opt > 0 {
				t.ratios = append(t.ratios, ir.cost/it.opt)
			} else {
				t.notScored++
			}
		}
	}
	for _, c := range t.cells {
		sort.Float64s(c.lat)
		c.LatencyP50Ms, _ = percentile(c.lat, 50)
		c.OverrunMaxMs = c.lat[len(c.lat)-1] - float64(c.timeout)/float64(time.Millisecond)
	}
	return t
}
