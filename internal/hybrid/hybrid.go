// Package hybrid orchestrates the registered solver backends into a single
// deadline-aware meta-backend, following the hybrid quantum-classical
// framing of the paper's co-design discussion: near-term quantum solvers
// are unreliable per-shot, so production use races them against (or hedges
// them behind) classical baselines and lets an arbiter pick the best valid
// plan produced before the deadline.
//
// Three strategies are provided, each a short policy over one shared
// launcher (one goroutine and one "racer.<name>" span per portfolio
// backend) and one deadline-aware collector:
//
//   - "staged": the stage executor (see stages) runs the classical stage
//     (greedy, then DP when the instance is small enough) for an instant
//     feasible incumbent, then — after a hedge delay — launches the
//     quantum-simulated portfolio warm-started from that incumbent,
//     improving the answer anytime until the deadline. Quality-optimal:
//     the final plan is never worse than the classical incumbent.
//   - "learned": the contextual-bandit router picks the arms, which then
//     run through the same stage executor with no hedge delay, and the
//     arbiter's ground truth feeds reward updates back into the router.
//   - "race": fan the encoded instance across the portfolio concurrently;
//     the first valid join order wins and the rest are cancelled.
//     Latency-optimal when any single backend may stall.
//
// Every candidate is validated and re-scored by true plan cost (Query.Cost
// of the decoded order), never by QUBO energy, and per-backend win/loss
// and latency outcomes are recorded into the service metrics registry.
package hybrid

import (
	"context"
	"fmt"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/sched"
	"quantumjoin/internal/service"
)

// Strategy names accepted by Config.Strategy and Params.Hybrid.Strategy.
const (
	StrategyRace   = "race"
	StrategyStaged = "staged"
	// StrategyLearned routes with the contextual-bandit scheduler
	// (Config.Router): straight to the predicted-best backend when the
	// model is confident, an uncertainty-sized race when not, the
	// classical floor always riding along as a safety arm. Requires a
	// configured router.
	StrategyLearned = "learned"
)

// Name is the registry name of the hybrid backend.
const Name = "hybrid"

// minBudget is the minimum remaining deadline worth launching a portfolio
// backend for: below it the stage executor keeps the classical incumbent
// and the race relaunches nothing.
const minBudget = 10 * time.Millisecond

// Config assembles a hybrid Backend over an existing registry.
type Config struct {
	// Registry resolves portfolio backend names (required).
	Registry *service.Registry
	// Metrics, when non-nil, receives per-backend win/loss and latency
	// outcomes from the arbiter.
	Metrics *service.Metrics
	// Strategy is the default strategy when a request names none
	// (default "staged").
	Strategy string
	// Portfolio is the default backend portfolio: the racers for "race",
	// the quantum stage for "staged" (the classical stage is always
	// greedy+DP). Default: anneal, tabu, qaoa — filtered to what the
	// registry actually has.
	Portfolio []string
	// HedgeDelay is the default pause between the classical incumbent and
	// the quantum launch in the staged strategy (default 25ms). The pause
	// lets cheap requests return without ever spinning up samplers.
	HedgeDelay time.Duration
	// Router is the learned scheduler behind the "learned" strategy:
	// requests selecting it are routed per its contextual-bandit decision,
	// and arbiter outcomes feed its reward updates. Required for
	// StrategyLearned, ignored by the other strategies.
	Router *sched.Router
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = StrategyStaged
	}
	if c.Portfolio == nil {
		c.Portfolio = []string{"anneal", "tabu", "qaoa"}
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	return c
}

// Backend is the hybrid orchestrator; it implements service.Backend and is
// safe for concurrent use.
type Backend struct {
	cfg Config
}

// New builds the hybrid backend. It returns an error when the registry is
// missing or the default strategy is unknown.
func New(cfg Config) (*Backend, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("hybrid: config needs a backend registry")
	}
	switch cfg.Strategy {
	case StrategyRace, StrategyStaged:
	case StrategyLearned:
		if cfg.Router == nil {
			return nil, fmt.Errorf("hybrid: the learned default strategy needs a configured router")
		}
	default:
		return nil, fmt.Errorf("hybrid: unknown default strategy %q", cfg.Strategy)
	}
	return &Backend{cfg: cfg}, nil
}

// Name implements service.Backend.
func (b *Backend) Name() string { return Name }

// Solve implements service.Backend: it dispatches on the request's
// strategy and returns the arbiter's pick.
func (b *Backend) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	out, err := b.Orchestrate(ctx, enc, p)
	if err != nil {
		return nil, err
	}
	return out.Best, nil
}

// Outcome is the full orchestration result, exposing what Solve discards.
type Outcome struct {
	// Strategy is the strategy that ran.
	Strategy string
	// Winner is the backend whose candidate the arbiter selected.
	Winner string
	// Best is the selected decoded join order.
	Best *core.Decoded
	// Candidates are all finished attempts, including losers and errors.
	Candidates []Candidate
}

// Orchestrate runs the selected strategy and returns the arbitrated
// outcome. It is the programmatic entry point for callers that want the
// losing candidates too (benchmarks, tests).
func (b *Backend) Orchestrate(ctx context.Context, enc *core.Encoding, p service.Params) (*Outcome, error) {
	strategy := p.Hybrid.Strategy
	if strategy == "" {
		strategy = b.cfg.Strategy
	}
	names, explicit := p.Hybrid.Portfolio, len(p.Hybrid.Portfolio) > 0
	if !explicit {
		names = b.cfg.Portfolio
	}
	portfolio, err := b.arms(names, explicit, enc.Query.NumRelations())
	if err != nil {
		return nil, err
	}
	switch strategy {
	case StrategyRace:
		return b.race(ctx, enc, p, portfolio)
	case StrategyStaged:
		return b.staged(ctx, enc, p, portfolio)
	case StrategyLearned:
		return b.learned(ctx, enc, p)
	default:
		return nil, fmt.Errorf("hybrid: unknown strategy %q (have: race, staged, learned): %w",
			strategy, service.ErrBadRequest)
	}
}

// armSet is a backend list filtered for one request.
type armSet struct {
	names []string
	// breakers holds the health state of every breaker-wrapped arm that
	// passed the other checks — a routing feature for the learned router
	// (nil when no arm reports health).
	breakers map[string]string
	// skippedOpen counts arms dropped for an open breaker, so strategies
	// can tell "no such backends" (a client error) from "all backends
	// tripped" (transient unavailability, 503).
	skippedOpen int
}

// arms filters names down to the backends that can serve an n-relation
// request: registered, not the hybrid backend itself (orchestration is not
// recursive), DP only up to classical.RequestDPRelations, and no open
// circuit breaker (see service.HealthReporter) — launching a backend that
// is guaranteed to fast-fail wastes a goroutine and pollutes the loss
// statistics. Half-open backends stay in: portfolio traffic is how they
// get probed back to health. A request-named (explicit) list turns an
// unknown name or "hybrid" into a client error; configured lists drop
// them silently so a slim registry still works.
func (b *Backend) arms(names []string, explicit bool, n int) (armSet, error) {
	var set armSet
	for _, name := range names {
		be, ok := b.cfg.Registry.Get(name)
		switch {
		case name == Name && explicit:
			return armSet{}, fmt.Errorf("hybrid: portfolio must not include %q itself: %w",
				Name, service.ErrBadRequest)
		case !ok && explicit:
			return armSet{}, fmt.Errorf("hybrid: unknown portfolio backend %q: %w",
				name, service.ErrBadRequest)
		case name == Name || !ok:
			continue
		case name == "dp" && n > classical.RequestDPRelations:
			continue
		}
		if hr, ok := be.(service.HealthReporter); ok {
			state := hr.Health().State
			if set.breakers == nil {
				set.breakers = make(map[string]string, len(names))
			}
			set.breakers[name] = state
			if state == service.HealthOpen {
				set.skippedOpen++
				continue
			}
		}
		set.names = append(set.names, name)
	}
	return set, nil
}

// allOpen is the transient-unavailability (503) error for a request whose
// every usable backend was skipped for an open circuit breaker.
func allOpen(n int, what string) error {
	return fmt.Errorf("hybrid: all %d %s have open circuit breakers: %w", n, what, service.ErrUnavailable)
}

// subParams derives the parameters passed to a portfolio backend: the
// hybrid knobs are stripped (they are meaningless one level down) and the
// warm-start state is attached when the strategy produced one.
func subParams(p service.Params, warm []bool) service.Params {
	p.Hybrid = service.HybridParams{}
	p.InitialState = warm
	return p
}
