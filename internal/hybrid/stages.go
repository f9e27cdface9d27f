package hybrid

import (
	"context"
	"errors"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// classicalStage names the backends of the staged strategy's first stage,
// in launch order. Greedy is O(T²) and never fails; DP is exact and polls
// the context, so a tight deadline degrades the stage to greedy quality
// rather than blowing the budget. The arm filter additionally gates DP on
// instance size (classical.RequestDPRelations).
var classicalStage = []string{"greedy", "dp"}

// staged runs the hedged two-stage strategy: the classical stage produces
// an instant feasible incumbent, then — after the hedge delay, and only if
// enough deadline remains — the quantum-simulated portfolio launches warm-
// started from that incumbent, improving the answer anytime until the
// deadline. The final plan is never worse than the classical incumbent.
// Open-breaker backends were already filtered from the portfolio; the
// classical stage keeps working regardless, so tripped quantum backends
// degrade quality, never availability.
func (b *Backend) staged(ctx context.Context, enc *core.Encoding, p service.Params, portfolio armSet) (*Outcome, error) {
	// Both classical backends are optional registry members; a slim
	// registry degrades to a pure quantum portfolio.
	cl, _ := b.arms(classicalStage, false, enc.Query.NumRelations())
	// A negative request hedge disables the pause; zero takes the default.
	delay := p.Hybrid.HedgeDelay
	if delay == 0 {
		delay = b.cfg.HedgeDelay
	}
	candidates := b.stages(ctx, enc, p, cl.names, portfolio.names, delay, "")
	if skipped := cl.skippedOpen + portfolio.skippedOpen; len(candidates) == 0 && skipped > 0 {
		// Every registered backend tripped: transient unavailability, not
		// a client error.
		return nil, allOpen(skipped, "portfolio backends")
	}
	return b.arbitrate(ctx, StrategyStaged, candidates)
}

// stages is the stage executor behind the staged and learned strategies.
// It runs the classical arms synchronously (microseconds to milliseconds)
// and keeps the cheapest valid result as the incumbent, marking the safety
// arm's candidate as a fallback; waits out the hedge delay; then — only if
// at least minBudget of deadline remains — launches the quantum arms warm-
// started from the incumbent and folds their candidates in as they finish,
// until all have reported or the deadline ends the wait. Candidates come
// back in classical order, then quantum arrival order.
func (b *Backend) stages(ctx context.Context, enc *core.Encoding, p service.Params, classical, quantum []string, hedge time.Duration, safety string) []Candidate {
	var candidates []Candidate
	var incumbent *Candidate
	for _, name := range classical {
		be, ok := b.cfg.Registry.Get(name)
		if !ok {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		clCtx, clSpan := obs.StartSpan(ctx, "classical."+name)
		start := time.Now()
		d, err := be.Solve(clCtx, enc, subParams(p, nil))
		c := vet(enc, name, d, err, time.Since(start))
		c.Fallback = name == safety
		clSpan.SetAttr("valid", c.Decoded != nil)
		clSpan.End(err)
		candidates = append(candidates, c)
		if c.Decoded != nil && (incumbent == nil || c.Cost < incumbent.Cost) {
			cc := c
			incumbent = &cc
		}
	}
	if len(quantum) == 0 || !hedgeWait(ctx, hedge) || !budgetLeft(ctx) {
		return candidates
	}

	// Embed the incumbent into the full QUBO space so samplers refine a
	// good solution instead of starting from noise. A failed embedding
	// degrades to a cold start: warm-starting is an optimisation, never a
	// correctness requirement.
	var warm []bool
	if incumbent != nil {
		warm, _ = enc.WarmState(incumbent.Decoded.Order)
	}
	// The stage executor has no private race context: the request context
	// both cancels stragglers and carries the deadline.
	f := &fanout{reg: b.cfg.Registry, enc: enc, outer: ctx, race: ctx,
		warm: warm, warmStart: true, results: make(chan Candidate, len(quantum))}
	for _, name := range quantum {
		f.launch(name, p)
	}
	for f.pending > 0 {
		c, ok := f.next(nil)
		if !ok {
			break
		}
		candidates = append(candidates, c)
	}
	return candidates
}

// hedgeWait sleeps for delay (bounded by the context) and reports whether
// the portfolio stage should still launch. Launching right at the deadline
// is useless, so the wait is capped to leave at least minBudget of solving
// time; a non-positive delay does not wait at all.
func hedgeWait(ctx context.Context, delay time.Duration) bool {
	if deadline, ok := ctx.Deadline(); ok {
		if room := time.Until(deadline) - minBudget; room < delay {
			delay = room
		}
	}
	if delay <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// budgetLeft reports whether enough deadline remains to be worth starting
// a portfolio backend.
func budgetLeft(ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		return false
	}
	if deadline, ok := ctx.Deadline(); ok {
		return time.Until(deadline) >= minBudget
	}
	return true
}

// fanout runs portfolio backends concurrently — the one launcher every
// strategy shares. Each launch gets its own goroutine and "racer.<name>"
// span and reports its vetted candidate on a channel buffered for every
// launch, so a straggler's send never blocks after the collector has
// given up on it.
type fanout struct {
	reg   *service.Registry
	enc   *core.Encoding
	outer context.Context // the request: deadline and client cancellation
	race  context.Context // cancels the racers; outer itself when nothing else does
	// warm is the initial state every launch is warm-started from;
	// warmStart records on each racer span whether there was one (only
	// strategies that warm-start their portfolio set it).
	warm      []bool
	warmStart bool

	results chan Candidate
	pending int // launched racers not yet collected
}

// launch starts the named backend on its own goroutine. The racer's span
// is a child of the race context's span; the goroutine owns it and ends it
// exactly once, win or lose — a cancelled loser the collector abandoned
// still closes its span, and read-time trace snapshots pick that up.
// Unregistered names are not launched.
func (f *fanout) launch(name string, p service.Params) {
	be, ok := f.reg.Get(name)
	if !ok {
		return
	}
	spanCtx, span := obs.StartSpan(f.race, "racer."+name)
	if f.warmStart {
		span.SetAttr("warm_start", f.warm != nil)
	}
	f.pending++
	go func() {
		start := time.Now()
		d, err := be.Solve(spanCtx, f.enc, subParams(p, f.warm))
		c := vet(f.enc, name, d, err, time.Since(start))
		span.SetAttr("valid", c.Decoded != nil)
		endRacerSpan(span, f.outer, f.race, err)
		f.results <- c
	}()
}

// next waits for the next racer's candidate. ok is false when the request
// context ends first — the deadline ends the wait even if a backend is
// stuck in a section that does not check its context — or when stop fires
// (a nil stop never does).
func (f *fanout) next(stop <-chan time.Time) (c Candidate, ok bool) {
	select {
	case c = <-f.results:
		f.pending--
		return c, true
	case <-f.outer.Done():
		return c, false
	case <-stop:
		return c, false
	}
}

// endRacerSpan closes a portfolio racer's span, recording why a loser
// stopped: the race was decided (lost_race), the request deadline hit, or
// the client went away. Cancellation is an outcome, not a failure — only
// a genuine backend error (while the race was still live) marks the span
// errored, so healthy races stay subject to probabilistic sampling.
func endRacerSpan(span *obs.Span, outer, race context.Context, err error) {
	if race.Err() != nil {
		reason := "lost_race"
		switch {
		case errors.Is(outer.Err(), context.DeadlineExceeded):
			reason = "deadline"
		case errors.Is(outer.Err(), context.Canceled):
			reason = "client_cancelled"
		}
		span.SetAttr("cancel_reason", reason)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End(nil)
		return
	}
	span.End(err)
}
