package hybrid

import (
	"context"
	"fmt"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/service"
)

// raceDrainGrace bounds how long the racer waits, after cancelling the
// losers, for them to observe the cancellation and report back (so their
// loss/latency outcomes can be recorded). Stragglers past the grace are
// abandoned: their goroutines still exit on their own — the results
// channel is buffered for the whole portfolio, so a late send never
// blocks — but they go unrecorded.
const raceDrainGrace = 250 * time.Millisecond

// race fans the encoded instance across the portfolio concurrently and
// returns as soon as any backend produces a valid join order, cancelling
// the rest. Per-backend budgets are the full remaining deadline: racing
// trades compute for latency, so every racer gets the whole window and the
// first valid answer ends it. The request deadline ends the race too, even
// when a racer is stuck in a section that does not check its context.
//
// A racer that dies of a transient QPU fault (mid-run abort, rejection,
// failed embedding — see faults.Retryable) is relaunched once on a salted
// seed while the race is undecided and deadline budget remains: on
// unreliable hardware an abort says nothing about the instance, only about
// that attempt.
func (b *Backend) race(ctx context.Context, enc *core.Encoding, p service.Params, portfolio armSet) (*Outcome, error) {
	if len(portfolio.names) == 0 {
		if portfolio.skippedOpen > 0 {
			return nil, allOpen(portfolio.skippedOpen, "portfolio backends")
		}
		return nil, fmt.Errorf("hybrid: race strategy needs a non-empty portfolio: %w", service.ErrBadRequest)
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered for every racer plus one relaunch each, so a straggler's
	// send never blocks even after the race is abandoned.
	f := &fanout{reg: b.cfg.Registry, enc: enc, outer: ctx, race: raceCtx,
		results: make(chan Candidate, 2*len(portfolio.names))}
	for _, name := range portfolio.names {
		f.launch(name, p)
	}

	relaunched := make(map[string]bool, len(portfolio.names))
	var candidates []Candidate
	var grace <-chan time.Time // set once the race is won
	for f.pending > 0 {
		c, ok := f.next(grace)
		if !ok {
			break
		}
		candidates = append(candidates, c)
		switch {
		case grace == nil && c.Decoded == nil && !relaunched[c.Backend] && reRace(raceCtx, c.Err):
			relaunched[c.Backend] = true
			pp := p
			// Salt the seed so the relaunch explores a fresh embedding and
			// sample path instead of replaying the doomed attempt.
			pp.Seed = p.Seed ^ (int64(len(candidates)) * 0x5deece66d)
			f.launch(c.Backend, pp)
		case grace == nil && c.Decoded != nil:
			// First valid answer: cancel the losers and collect them for
			// their outcome records, but only within the grace window — a
			// loser stuck in a non-interruptible section must not delay
			// the winning answer.
			cancel()
			timer := time.NewTimer(raceDrainGrace)
			defer timer.Stop()
			grace = timer.C
		}
	}
	return b.arbitrate(ctx, StrategyRace, candidates)
}

// reRace reports whether a failed racer is worth one relaunch: its failure
// is a transient fault, the race is still live, and enough deadline budget
// remains for a fresh attempt.
func reRace(ctx context.Context, err error) bool {
	return faults.Retryable(err) && budgetLeft(ctx)
}
