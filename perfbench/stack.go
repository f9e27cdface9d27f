package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"quantumjoin/internal/cluster"
	"quantumjoin/internal/core"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qsim"
	"quantumjoin/internal/sched"
	"quantumjoin/internal/service"
)

// stack is one in-process qjoind: the same registry, resilience wrappers,
// scheduler, hybrid and decomposition backends, and handler chain that
// cmd/qjoind assembles from its default flags, with every registered
// backend wrapped in a span-recording timer.
type stack struct {
	svc     *service.Service
	router  *sched.Router
	hybrid  *hybrid.Backend
	decomp  *decomp.Backend
	handler http.Handler // service mux (cluster node for a fleet)
	node    *cluster.Node
}

// newStack mirrors cmd/qjoind's main with its default flag values.
func newStack(rec *recorder) (*stack, error) {
	tracer := obs.NewTracer(obs.Options{Capacity: 256, SampleRate: 0.05})
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := service.DefaultRegistry(service.RegistryConfig{
		PegasusM:      6,
		MaxQAOAQubits: 16,
		QAOAPrecision: qsim.Complex128,
	})
	svc := service.New(reg, service.Config{
		CacheSize:      256,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		DefaultBackend: "anneal",
		Shed:           true,
		Degrade:        true,
		Tracer:         tracer,
		Logger:         logger,
	})
	for _, name := range []string{"anneal", "qaoa", "tabu", "milp"} {
		be, _ := reg.Get(name)
		be = faults.WithRetry(be, faults.RetryPolicy{MaxAttempts: 4, Seed: 1, Metrics: svc.Metrics()})
		be = faults.WithBreaker(be, faults.BreakerConfig{ConsecutiveFailures: 5, OpenFor: 2 * time.Second})
		if err := reg.Replace(be); err != nil {
			return nil, err
		}
	}
	router, err := sched.NewRouter(sched.Config{Arms: []string{"dp", "anneal", "tabu", "qaoa"}, Metrics: svc.Metrics()})
	if err != nil {
		return nil, err
	}
	svc.AddPromCollector(router.WriteProm)
	portfolio := []string{"anneal", "tabu", "qaoa"}
	hb, err := hybrid.New(hybrid.Config{
		Registry: reg, Metrics: svc.Metrics(), Strategy: hybrid.StrategyStaged,
		Portfolio: portfolio, HedgeDelay: 25 * time.Millisecond, Router: router,
	})
	if err != nil {
		return nil, err
	}
	if err := reg.Register(hb); err != nil {
		return nil, err
	}
	db, err := decomp.New(decomp.Config{
		Registry: reg, Metrics: svc.Metrics(), PartBudget: 12,
		Portfolio: portfolio, HedgeDelay: 25 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := reg.Register(db); err != nil {
		return nil, err
	}
	// Wrap last, so the hybrid and decomposition backends see the timed
	// versions of the backends they orchestrate.
	for _, name := range reg.Names() {
		be, _ := reg.Get(name)
		tb, err := timeBackend(be, rec)
		if err != nil {
			return nil, err
		}
		if err := reg.Replace(tb); err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/sched", router.Handler())
	mux.Handle("/", service.NewHandler(svc))
	return &stack{svc: svc, router: router, hybrid: hb, decomp: db, handler: mux}, nil
}

// fleet is an in-process loopback fleet of stacks behind cluster nodes,
// each serving real HTTP so forwards cross a socket as they do between
// qjoind processes.
type fleet struct {
	stacks  []*stack
	servers []*http.Server
	urls    []string
}

func newFleet(n int, rec *recorder) (*fleet, error) {
	f := &fleet{}
	var ls []net.Listener
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		ls = append(ls, l)
		f.urls = append(f.urls, "http://"+l.Addr().String())
	}
	for i, l := range ls {
		st, err := newStack(rec)
		if err != nil {
			f.close()
			return nil, err
		}
		node, err := cluster.NewNode(timeHandler(st.handler, rec, "service.handler"), cluster.NodeConfig{
			Self:     f.urls[i],
			Peers:    f.urls,
			MaxHops:  1,
			Replicas: 2,
			Gossip:   cluster.GossipConfig{Interval: 200 * time.Millisecond, DownAfter: 2},
			Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		node.Start()
		st.node = node
		st.handler = node
		srv := &http.Server{Handler: node, ReadHeaderTimeout: 5 * time.Second}
		f.stacks = append(f.stacks, st)
		f.servers = append(f.servers, srv)
		go func() { _ = srv.Serve(l) }() // returns ErrServerClosed on close
	}
	return f, nil
}

func (f *fleet) close() {
	for _, s := range f.servers {
		_ = s.Close() // listener teardown; in-flight requests are done
	}
	for _, st := range f.stacks {
		if st.node != nil {
			st.node.Stop()
		}
	}
}

// timeBackend wraps a registered backend in a span-recording timer that
// keeps the interfaces the service and orchestrators look for.
func timeBackend(be service.Backend, rec *recorder) (service.Backend, error) {
	t := timed{inner: be, rec: rec}
	switch inner := be.(type) {
	case service.QueryBackend:
		return timedQuery{timed: t, query: inner}, nil
	case service.BatchSolver:
		return nil, fmt.Errorf("backend %s has a batch path the timer would hide", be.Name())
	case service.HealthReporter:
		return timedHealth{timed: t, health: inner}, nil
	}
	return t, nil
}

type timed struct {
	inner service.Backend
	rec   *recorder
}

func (t timed) Name() string { return t.inner.Name() }

func (t timed) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	ctx, sp := t.rec.start(ctx, "solve:"+t.inner.Name())
	d, err := t.inner.Solve(ctx, enc, p)
	sp.valid = err == nil && d != nil && d.Valid
	t.rec.end(sp, err)
	return d, err
}

type timedHealth struct {
	timed
	health service.HealthReporter
}

func (t timedHealth) Health() service.BackendHealth { return t.health.Health() }

type timedQuery struct {
	timed
	query service.QueryBackend
}

func (t timedQuery) SolveQuery(ctx context.Context, q *join.Query, spec service.EncodeSpec, p service.Params) (*service.QueryResult, error) {
	ctx, sp := t.rec.start(ctx, "solve:"+t.inner.Name())
	r, err := t.query.SolveQuery(ctx, q, spec, p)
	sp.valid = err == nil
	t.rec.end(sp, err)
	return r, err
}

// timeHandler records a span around every request an HTTP handler
// serves, skipping health and status polls.
func timeHandler(h http.Handler, rec *recorder, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/optimize") {
			h.ServeHTTP(w, r)
			return
		}
		ctx, sp := rec.start(r.Context(), name)
		h.ServeHTTP(w, r.WithContext(ctx))
		rec.end(sp, nil)
	})
}
