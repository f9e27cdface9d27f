package hybrid

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/sched"
	"quantumjoin/internal/service"
)

// learned is the predict-then-race strategy: the contextual-bandit router
// scores every available arm against the request features and decides
// between routing straight to the predicted-best backend (plus the
// classical floor as a safety arm) and racing an uncertainty-sized
// portfolio. The chosen arms run through the stage executor with no hedge
// delay, and the arbiter's ground truth feeds reward updates back into
// the router: true plan-cost ratio versus the best candidate minus a
// deadline-consumption penalty, zero for arms that failed or missed the
// deadline.
func (b *Backend) learned(ctx context.Context, enc *core.Encoding, p service.Params) (*Outcome, error) {
	router := b.cfg.Router
	if router == nil {
		return nil, fmt.Errorf("hybrid: learned strategy needs a configured router: %w",
			service.ErrBadRequest)
	}

	budget := time.Duration(0)
	if deadline, ok := ctx.Deadline(); ok {
		budget = time.Until(deadline)
		if budget < 0 {
			budget = 0
		}
	}
	avail, _ := b.arms(router.Arms(), false, enc.Query.NumRelations())
	if len(avail.names) == 0 {
		if avail.skippedOpen > 0 {
			return nil, allOpen(avail.skippedOpen, "scheduler arms")
		}
		return nil, fmt.Errorf("hybrid: no scheduler arm is registered: %w", service.ErrBadRequest)
	}

	decision := router.Decide(enc.Query, sched.Context{
		Budget:    budget,
		CacheHit:  p.CacheHit,
		Parts:     1,
		Breakers:  avail.breakers,
		Available: avail.names,
	})
	if span := obs.ActiveSpan(ctx); span != nil {
		span.SetAttr("sched_mode", decision.Mode)
		span.SetAttr("sched_best", decision.Best)
		span.SetAttr("sched_confidence", decision.Confidence)
		span.SetAttr("sched_arms", strings.Join(decision.Arms, ","))
	}

	// Classical arms form the synchronous first stage so the portfolio can
	// warm-start from their incumbent; everything else launches at once.
	var classical, quantum []string
	for _, arm := range decision.Arms {
		if slices.Contains(classicalStage, arm) {
			classical = append(classical, arm)
		} else {
			quantum = append(quantum, arm)
		}
	}
	candidates := b.stages(ctx, enc, p, classical, quantum, 0, decision.Safety)
	b.feedback(router, &decision, candidates, budget)

	if len(candidates) == 0 && avail.skippedOpen > 0 {
		return nil, allOpen(avail.skippedOpen, "scheduler arms")
	}
	return b.arbitrate(ctx, StrategyLearned, candidates)
}

// feedback converts the finished candidates into reward updates for every
// arm the decision invoked: cost ratio versus the best valid candidate
// minus the latency penalty, zero for errors, invalid plans, and arms
// whose result never arrived before the deadline.
func (b *Backend) feedback(router *sched.Router, d *sched.Decision, candidates []Candidate, budget time.Duration) {
	bestCost := 0.0
	for _, c := range candidates {
		if c.Decoded != nil && (bestCost == 0 || c.Cost < bestCost) {
			bestCost = c.Cost
		}
	}
	finished := make(map[string]bool, len(candidates))
	for _, c := range candidates {
		finished[c.Backend] = true
		reward := 0.0
		if c.Decoded != nil {
			reward = router.Reward(bestCost, c.Cost, c.Elapsed, budget)
		}
		router.Update(d, c.Backend, reward)
	}
	for _, arm := range d.Arms {
		if !finished[arm] {
			router.Update(d, arm, 0) // invoked but missed the deadline
		}
	}
}
