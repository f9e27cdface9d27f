// Package classical provides classical join-ordering baselines: exact
// optimisation by dynamic programming over relation subsets (left-deep
// trees with cross products), exhaustive enumeration for cross-checking,
// and a greedy heuristic. The exact optimum serves as ground truth for the
// valid/optimal statistics reported for the quantum backends (the paper's
// Tables 2 and 3), mirroring the role of the classical MILP solver in the
// original study.
package classical

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"quantumjoin/internal/join"
)

// MaxDPRelations bounds the DP solver; beyond this the 2^T table does not
// fit in memory on commodity machines.
const MaxDPRelations = 26

// RequestDPRelations is the largest instance on which exact DP runs inside
// a request — the hybrid classical stage and arm filter, and the
// decomposition's per-part floor. OptimalContext polls the context, so the
// gate is not about cancellation: it bounds the 2^T table (about 2.4 MB at
// 18 relations, 600 MB at MaxDPRelations) and the DP time a deadline would
// interrupt for nothing.
const RequestDPRelations = 18

// Result is an optimised join order with its C_out cost.
type Result struct {
	Order join.Order
	Cost  float64
}

// Optimal computes the cheapest left-deep join order (cross products
// allowed) by dynamic programming over subsets: dp[S] is the cheapest cost
// of any left-deep tree joining exactly the relations in S, and because
// C_out charges each intermediate result cardinality exactly once,
// dp[S] = min over r in S of dp[S \ {r}] + card(S).
func Optimal(q *join.Query) (Result, error) {
	return OptimalContext(context.Background(), q)
}

// dpPollMask gates the context check in OptimalContext to once every 8192
// subsets, keeping the poll off the inner loop's hot path.
const dpPollMask = 8192 - 1

// OptimalContext is Optimal with cancellation: the subset sweep polls the
// context periodically, so a request deadline interrupts the table fill on
// instances where 2^T iterations take longer than the caller can wait.
func OptimalContext(ctx context.Context, q *join.Query) (Result, error) {
	n := q.NumRelations()
	if n < 2 {
		return Result{}, fmt.Errorf("classical: need at least two relations, got %d", n)
	}
	if n > MaxDPRelations {
		return Result{}, fmt.Errorf("classical: %d relations exceeds DP limit %d", n, MaxDPRelations)
	}
	size := uint64(1) << uint(n)
	dp := make([]float64, size)
	last := make([]int8, size)
	for s := uint64(1); s < size; s++ {
		if s&dpPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("classical: DP interrupted after %d of %d subsets: %w", s, size, err)
			}
		}
		if bits.OnesCount64(s) == 1 { // singleton
			dp[s] = 0
			last[s] = -1
			continue
		}
		dp[s] = math.Inf(1)
		card := q.SetCard(s)
		for r := 0; r < n; r++ {
			if s&(1<<uint(r)) == 0 {
				continue
			}
			prev := s &^ (1 << uint(r))
			if bits.OnesCount64(prev) == 0 {
				continue
			}
			c := dp[prev] + card
			if c < dp[s] {
				dp[s] = c
				last[s] = int8(r)
			}
		}
	}
	full := size - 1
	order := make(join.Order, n)
	s := full
	for i := n - 1; i >= 1; i-- {
		r := int(last[s])
		order[i] = r
		s &^= 1 << uint(r)
	}
	// The remaining singleton is the first relation.
	order[0] = bits.TrailingZeros64(s)
	return Result{Order: order, Cost: dp[full]}, nil
}

// OptimalCost is a convenience wrapper returning only the optimal cost.
func OptimalCost(q *join.Query) (float64, error) {
	r, err := Optimal(q)
	if err != nil {
		return 0, err
	}
	return r.Cost, nil
}

// MaxExhaustiveRelations bounds Exhaustive; n! permutations beyond ~10
// relations are impractical.
const MaxExhaustiveRelations = 10

// Exhaustive enumerates every permutation and returns the cheapest order.
// Intended for validating Optimal in tests and for tiny instances.
func Exhaustive(q *join.Query) (Result, error) {
	n := q.NumRelations()
	if n < 2 {
		return Result{}, fmt.Errorf("classical: need at least two relations, got %d", n)
	}
	if n > MaxExhaustiveRelations {
		return Result{}, fmt.Errorf("classical: %d relations exceeds exhaustive limit %d", n, MaxExhaustiveRelations)
	}
	perm := make(join.Order, n)
	for i := range perm {
		perm[i] = i
	}
	best := Result{Cost: math.Inf(1)}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if c := q.Cost(perm); c < best.Cost {
				best.Cost = c
				best.Order = append(join.Order(nil), perm...)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best, nil
}

// Greedy builds an order by repeatedly appending the relation that
// minimises the next intermediate result cardinality (min-selectivity
// greedy). It is a fast non-optimal baseline.
func Greedy(q *join.Query) Result {
	n := q.NumRelations()
	order := make(join.Order, 0, n)
	var mask uint64
	// Start with the pair producing the smallest first intermediate.
	bestI, bestJ, bestCard := -1, -1, math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// bestI == -1 guards degenerate cost arithmetic (all
			// candidates Inf): some pair must be picked regardless.
			if c := q.SetCard(1<<uint(i) | 1<<uint(j)); bestI == -1 || c < bestCard {
				bestI, bestJ, bestCard = i, j, c
			}
		}
	}
	order = append(order, bestI, bestJ)
	mask = 1<<uint(bestI) | 1<<uint(bestJ)
	cost := bestCard
	for len(order) < n {
		bestT, bestC := -1, math.Inf(1)
		for t := 0; t < n; t++ {
			if mask&(1<<uint(t)) != 0 {
				continue
			}
			if c := q.SetCard(mask | 1<<uint(t)); bestT == -1 || c < bestC {
				bestT, bestC = t, c
			}
		}
		order = append(order, bestT)
		mask |= 1 << uint(bestT)
		cost += bestC
	}
	return Result{Order: order, Cost: cost}
}

// IsOptimal reports whether the cost equals the optimal cost within a
// relative tolerance of 1e-9 (costs are derived from the same float
// arithmetic, so exact up to rounding).
func IsOptimal(q *join.Query, cost float64) (bool, error) {
	opt, err := OptimalCost(q)
	if err != nil {
		return false, err
	}
	return cost <= opt*(1+1e-9)+1e-12, nil
}
