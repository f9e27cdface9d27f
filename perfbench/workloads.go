package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// grace is added to every item's timeout_ms before its answer counts as
// late (deadline_miss_share). Loopback HTTP costs well under 1 ms, and on
// deadline-mix almost no answer lands between 0 and 2 ms past its
// deadline, so the count does not hinge on timing noise at the edge.
const grace = 2 * time.Millisecond

// dpLimit is the largest query the benchmark solves exactly with
// classical.OptimalContext to score plan_cost_ratio; larger items are
// left out of the ratio and counted.
const dpLimit = 18

// item is one optimisation request: the query exactly as sent (relation
// order and names), the request fields, and the DP optimum.
type item struct {
	shape int // index of the repeated base shape; -1 for a fresh query
	q     *join.Query
	pos   map[string]int // relation name -> index in q
	req   service.OptimizeRequest
	opt   float64 // DP optimum of q; 0 when not computed
}

// op is one HTTP operation: a single /v1/optimize item or a
// /v1/optimize/batch envelope of several.
type op struct {
	batch   bool
	items   []*item
	timeout time.Duration
	body    []byte
}

// cell names the item's workload cell: backend (and hybrid strategy),
// relation count, and the item's own deadline (batch items have none).
func (it *item) cell() string {
	name := fmt.Sprintf("%s/%d", it.req.Backend, it.q.NumRelations())
	if it.req.Strategy != "" {
		name = fmt.Sprintf("%s-%s/%d", it.req.Backend, it.req.Strategy, it.q.NumRelations())
	}
	if it.req.TimeoutMs > 0 {
		name += fmt.Sprintf("/%dms", it.req.TimeoutMs)
	}
	return name
}

func (o *op) path() string {
	if o.batch {
		return "/v1/optimize/batch"
	}
	return "/v1/optimize"
}

// workload is a generated traffic mix plus the qjoind deployment it runs
// against. Every field is a pure function of the workload seed.
type workload struct {
	name    string
	nodes   int      // qjoind processes; >1 forms a loopback fleet
	flags   []string // qjoind flags beyond the listen/cluster addresses
	clients int
	rate    float64 // open-loop operations per second; 0 = closed loop
	tailPct float64 // fixed tail percentile of latency_tail_ms
	warmup  time.Duration
	warm    []*op // warm-up operations (cycled for closed loops)
	ops     []*op // timed operations (cycled for closed loops)
}

var workloadNames = []string{"deadline-mix", "fleet-batch"}

// build generates the named workload. seconds sizes the open-loop
// schedule; closed loops cycle their operations for as long as needed.
func build(name string, seed int64, seconds int) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "deadline-mix":
		w, err = buildDeadlineMix(seed, seconds)
	case "fleet-batch":
		w, err = buildFleetBatch(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	w.name = name
	if err := w.solveOptima(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}

var graphs = []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Clique, querygen.Tree}

// genQuery draws a query the way querygen.DeadlineStratified does:
// paper-style integer-log cardinalities in 10..1000 and selectivities in
// 0.01..0.1, uniform or 0.5-skewed.
func genQuery(rng *rand.Rand, n int, g querygen.GraphType) (*join.Query, error) {
	skew := 0.0
	if rng.Intn(2) == 1 {
		skew = 0.5
	}
	return querygen.Generate(querygen.Config{
		Relations:  n,
		Graph:      g,
		IntegerLog: true,
		MinLogCard: 1, MaxLogCard: 3,
		MinLogSel: 1, MaxLogSel: 2,
		Skew: skew,
	}, rand.New(rand.NewSource(rng.Int63())))
}

// relabel returns base with its relations listed in a random order under
// fresh names and its predicates shuffled: the same join graph as the
// service's permutation-invariant fingerprint sees it.
func relabel(base *join.Query, rng *rand.Rand) *join.Query {
	n := len(base.Relations)
	perm := rng.Perm(n)
	at := make([]int, n) // base index -> new index
	tag := fmt.Sprintf("t%05x", rng.Intn(1<<20))
	q := &join.Query{Relations: make([]join.Relation, n)}
	for i, b := range perm {
		at[b] = i
		q.Relations[i] = join.Relation{Name: fmt.Sprintf("%s_%d", tag, i), Card: base.Relations[b].Card}
	}
	for _, k := range rng.Perm(len(base.Predicates)) {
		p := base.Predicates[k]
		l, r := at[p.R1], at[p.R2]
		if rng.Intn(2) == 1 {
			l, r = r, l
		}
		q.Predicates = append(q.Predicates, join.Predicate{R1: l, R2: r, Sel: p.Sel})
	}
	return q
}

// newItem serialises q into req and reads it back the way qjoind does, so
// the benchmark scores plans on exactly the query the server parsed.
func newItem(shape int, q *join.Query, req service.OptimizeRequest) (*item, error) {
	var buf bytes.Buffer
	if err := q.WriteCatalog(&buf); err != nil {
		return nil, err
	}
	parsed, err := join.ReadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Query = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	it := &item{shape: shape, q: parsed, req: req, pos: make(map[string]int, len(parsed.Relations))}
	for i, r := range parsed.Relations {
		it.pos[r.Name] = i
	}
	return it, nil
}

func single(it *item) (*op, error) {
	body, err := json.Marshal(&it.req)
	if err != nil {
		return nil, err
	}
	return &op{items: []*item{it}, timeout: time.Duration(it.req.TimeoutMs) * time.Millisecond, body: body}, nil
}

func envelope(items []*item, timeoutMs int) (*op, error) {
	br := service.BatchRequest{TimeoutMs: timeoutMs}
	for _, it := range items {
		br.Requests = append(br.Requests, it.req)
	}
	body, err := json.Marshal(&br)
	if err != nil {
		return nil, err
	}
	return &op{batch: true, items: items, timeout: time.Duration(timeoutMs) * time.Millisecond, body: body}, nil
}

// shapeSet is a fixed set of base shapes, each with its request template;
// variants relabel a shape and fill a per-request seed.
type shapeSet struct {
	bases []*join.Query
	reqs  []service.OptimizeRequest
}

func (s *shapeSet) add(q *join.Query, req service.OptimizeRequest) int {
	s.bases = append(s.bases, q)
	s.reqs = append(s.reqs, req)
	return len(s.bases) - 1
}

func (s *shapeSet) variant(i int, rng *rand.Rand) (*item, error) {
	req := s.reqs[i]
	req.Seed = rng.Int63n(1 << 30)
	return newItem(i, relabel(s.bases[i], rng), req)
}

// Deadline classes of deadline-mix, as in querygen.DeadlineStratified.
var deadlineClasses = []int{25, 100, 400}

// deadlineMixRate is deadline-mix's open-loop send rate (requests/s).
const deadlineMixRate = 10.0

// buildDeadlineMix: an open loop of fresh queries, so every encoding
// lookup misses. Rounds of 20 hold one hybrid request per (size 10/13/16,
// tight/medium/loose, staged/learned) cell plus two 30–40-relation decomp
// requests under the loose deadline, in a seeded order.
func buildDeadlineMix(seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	round := func(r int) ([]*op, error) {
		var rops []*op
		cell := 0
		add := func(q *join.Query, req service.OptimizeRequest) error {
			it, err := newItem(-1, q, req)
			if err != nil {
				return err
			}
			o, err := single(it)
			if err != nil {
				return err
			}
			rops = append(rops, o)
			return nil
		}
		for _, n := range []int{10, 13, 16} {
			for _, ms := range deadlineClasses {
				for _, strategy := range []string{"staged", "learned"} {
					// Graph shapes rotate through the cells round by round,
					// so every run sends the same mix of shapes.
					cell++
					q, err := genQuery(rng, n, graphs[(r+cell)%len(graphs)])
					if err != nil {
						return nil, err
					}
					req := service.OptimizeRequest{Backend: "hybrid", Strategy: strategy, Lean: true,
						TimeoutMs: ms, Seed: rng.Int63n(1 << 30)}
					if err := add(q, req); err != nil {
						return nil, err
					}
				}
			}
		}
		for k := 0; k < 2; k++ {
			g := []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Tree}[(r+k)%3]
			q, err := genQuery(rng, 30+rng.Intn(11), g)
			if err != nil {
				return nil, err
			}
			req := service.OptimizeRequest{Backend: "decomp", Lean: true, TimeoutMs: 400, Seed: rng.Int63n(1 << 30)}
			if err := add(q, req); err != nil {
				return nil, err
			}
		}
		rng.Shuffle(len(rops), func(a, b int) { rops[a], rops[b] = rops[b], rops[a] })
		return rops, nil
	}
	w := &workload{
		nodes:   1,
		clients: 2,
		rate:    deadlineMixRate,
		// p98 is the highest percentile that leaves 10 of a 50 s run's 500
		// samples beyond it. It lands in the cluster of answers to the
		// 400 ms deadline (about 410-425 ms), so it measures how late loose
		// requests come back. p75-p95 fall where the latencies thin out
		// between deadline clusters and moved 20-40% from seed to seed.
		tailPct: 98,
		warmup:  3 * time.Second,
	}
	for r := 0; len(w.warm) < int(deadlineMixRate*w.warmup.Seconds()); r++ {
		ops, err := round(r)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, ops...)
	}
	w.warm = w.warm[:int(deadlineMixRate*w.warmup.Seconds())]
	want := int(deadlineMixRate * float64(seconds))
	for r := 0; len(w.ops) < want; r++ {
		ops, err := round(r)
		if err != nil {
			return nil, err
		}
		w.ops = append(w.ops, ops...)
	}
	w.ops = w.ops[:want]
	return w, nil
}

// buildFleetBatch: /v1/optimize/batch envelopes of 16 small items — 4
// anneal (2 relations), 2 qaoa (2), 6 tabu (3) and 4 greedy (4–6) — drawn
// from 168 repeated shapes, against a 3-node fleet with two replicas per
// key. qaoa stays at 2 relations, the only size inside its 16-qubit
// budget, so it solves every item and its breaker never sees a refusal.
// Tabu stays at 3 relations: from 4 up it fails often enough that five
// failures in a row trip its breaker in some runs and not others, and the
// breaker then degrades every tabu item for seconds.
func buildFleetBatch(seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var set shapeSet
	pools := map[string][]int{}
	for _, spec := range []struct {
		backend    string
		lo, hi, nk int
	}{{"anneal", 2, 2, 8}, {"qaoa", 2, 2, 8}, {"tabu", 3, 3, 128}, {"greedy", 4, 6, 24}} {
		for k := 0; k < spec.nk; k++ {
			n := spec.lo + k%(spec.hi-spec.lo+1)
			q, err := genQuery(rng, n, graphs[k%len(graphs)])
			if err != nil {
				return nil, err
			}
			req := service.OptimizeRequest{Backend: spec.backend, Lean: true}
			if spec.backend == "tabu" {
				// Two restarts instead of the default eight: tabu then
				// finds no valid order for about one item in eight, enough
				// degraded answers per run for a steady share.
				req.Reads = 2
			}
			pools[spec.backend] = append(pools[spec.backend], set.add(q, req))
		}
	}
	// Enough distinct envelopes that a run rarely resends one: a resent
	// item repeats its seeded outcome, so few distinct items would make
	// rare failures count many times over.
	var ops []*op
	for e := 0; e < 1024; e++ {
		var items []*item
		for _, part := range []struct {
			backend string
			k       int
		}{{"anneal", 4}, {"qaoa", 2}, {"tabu", 6}, {"greedy", 4}} {
			pool := pools[part.backend]
			for j := 0; j < part.k; j++ {
				it, err := set.variant(pool[rng.Intn(len(pool))], rng)
				if err != nil {
					return nil, err
				}
				items = append(items, it)
			}
		}
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		o, err := envelope(items, 2000)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return &workload{
		nodes:   3,
		flags:   []string{"-replicas", "2", "-gossip-interval", "200ms"},
		clients: 2,
		tailPct: 90,
		warmup:  3 * time.Second,
		warm:    ops,
		ops:     ops,
	}, nil
}

// solveOptima computes the DP optimum of every item up to dpLimit
// relations, once per repeated shape (plan cost is invariant under
// relabelling), on nproc goroutines. It runs before any qjoind process
// starts, off the clock.
func (w *workload) solveOptima() error {
	byShape := map[int][]*item{}
	var fresh []*item
	for _, list := range [][]*op{w.warm, w.ops} {
		for _, o := range list {
			for _, it := range o.items {
				if it.q.NumRelations() > dpLimit {
					continue
				}
				if it.shape < 0 {
					fresh = append(fresh, it)
				} else {
					byShape[it.shape] = append(byShape[it.shape], it)
				}
			}
		}
	}
	jobs := make(chan []*item)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range jobs {
				res, err := classical.OptimalContext(context.Background(), group[0].q)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("dp optimum: %w", err)
					}
					mu.Unlock()
					continue
				}
				for _, it := range group {
					it.opt = res.Cost
				}
			}
		}()
	}
	for _, group := range byShape {
		jobs <- group
	}
	for _, it := range fresh {
		jobs <- []*item{it}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
