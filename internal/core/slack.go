package core

import (
	"fmt"
	"math"

	"quantumjoin/internal/join"
)

// WarmState embeds a join order into the full QUBO variable space: the
// canonical decision assignment (EncodeOrder) with every constraint's
// slack bits completed (CompleteSlacks). It is the initial state samplers
// are warm-started from, so they refine a known plan instead of starting
// from noise. On error it returns a nil state.
func (e *Encoding) WarmState(o join.Order) ([]bool, error) {
	decision, err := e.EncodeOrder(o)
	if err != nil {
		return nil, err
	}
	return e.CompleteSlacks(decision)
}

// CompleteSlacks extends an assignment of the decision variables to a full
// QUBO assignment by choosing, for every equality constraint of the BILP,
// the slack bits that best absorb the residual RHS − LHS. For assignments
// that are feasible in the original inequality model the completed
// assignment has (up to discretisation) zero constraint penalty; this is
// the canonical embedding of a classical solution into the QUBO space
// (used for verifying encodings and for warm-starting samplers).
func (e *Encoding) CompleteSlacks(decision []bool) ([]bool, error) {
	nd := e.NumDecisionVars()
	if len(decision) != nd {
		return nil, fmt.Errorf("core: got %d decision variables, want %d", len(decision), nd)
	}
	full := make([]bool, e.QUBO.N())
	copy(full, decision)
	for _, c := range e.BILP.Cons {
		// Partition terms into decision part and slack bits (slack indices
		// are >= nd and appear with positive power-of-two weights).
		residual := c.RHS
		type bit struct {
			v int
			w float64
		}
		var bits []bit
		for _, t := range c.Terms {
			if t.Var < nd {
				if full[t.Var] {
					residual -= t.Coef
				}
			} else {
				bits = append(bits, bit{t.Var, t.Coef})
			}
		}
		// Greedy binary expansion, largest weight first (weights are
		// ω·2^k, so this is exact when the residual is representable).
		for i := len(bits) - 1; i >= 0; i-- {
			if bits[i].w <= residual+1e-9 && residual > 0 {
				full[bits[i].v] = true
				residual -= bits[i].w
			}
		}
		_ = math.Abs(residual) // residual may remain due to discretisation
	}
	return full, nil
}

// Residuals returns, for each BILP equality constraint, the absolute
// residual |RHS − LHS| under a full assignment; useful to diagnose which
// constraints a sample violates.
func (e *Encoding) Residuals(full []bool) []float64 {
	out := make([]float64, len(e.BILP.Cons))
	for i := range e.BILP.Cons {
		c := &e.BILP.Cons[i]
		out[i] = math.Abs(c.RHS - c.LHS(full))
	}
	return out
}

// FeasibleMILP reports whether the decision part of an assignment
// satisfies the original inequality model within tolerance.
func (e *Encoding) FeasibleMILP(decision []bool, tol float64) bool {
	return e.MILP.Feasible(decision, tol)
}

// SolveExact solves the underlying BILP by enumeration over the decision
// variables (choosing minimal cto/pao settings is already encoded in
// EncodeOrder, so enumeration over join orders suffices and is exact):
// it scores every permutation via ApproxCost and returns the best
// (approximated-cost-optimal) order. This mirrors what an exact classical
// solver would return for the paper's MILP model.
func (e *Encoding) SolveExact() (Decoded, error) {
	n := e.Query.NumRelations()
	if n > 10 {
		return Decoded{}, fmt.Errorf("core: SolveExact limited to 10 relations, got %d", n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := Decoded{}
	bestApprox := math.Inf(1)
	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			o := append([]int(nil), perm...)
			approx, err := e.ApproxCost(o)
			if err != nil {
				return err
			}
			if approx < bestApprox {
				bestApprox = approx
				best = Decoded{Valid: true, Order: o, Cost: e.Query.Cost(o)}
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := rec(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return Decoded{}, err
	}
	return best, nil
}
