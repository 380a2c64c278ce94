// Package power implements the paper's concluding extension: "our
// methods can be directly applied to timing driven and low power
// driven synthesis provided the algorithms are formulated in terms of
// a rectangular cover problem". It supplies
//
//   - a switching-activity model: signal probabilities propagated
//     through the network under independence assumptions, with
//     activity a = 2·p·(1−p) per signal, and
//   - a weighted rectangle cover: the rect.Valuer values each matrix
//     entry by activity-weighted literals instead of plain literals,
//     so extraction minimizes an estimate of switched capacitance
//     rather than area.
//
// Because every algorithm in internal/core takes its values through
// the same Valuer plumbing, the weighted cover drops straight into
// the sequential engine; PowerExtract demonstrates it end to end.
package power

import (
	"context"
	"math"

	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

// Activities holds per-variable signal probabilities and switching
// activities.
type Activities struct {
	// P is the probability the signal is 1.
	P map[sop.Var]float64
	// A is the switching activity 2·p·(1−p).
	A map[sop.Var]float64
}

// Compute propagates signal probabilities from the primary inputs
// (each with probability inP, typically 0.5) through the network in
// topological order, treating fanins as independent: a cube's
// probability is the product of its literals', and a sum's is
// 1 − Π(1 − p(cube)) — the standard first-order activity model.
func Compute(nw *network.Network, inP float64) (*Activities, error) {
	order, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	act := &Activities{P: map[sop.Var]float64{}, A: map[sop.Var]float64{}}
	for _, v := range nw.Inputs() {
		act.P[v] = inP
		act.A[v] = 2 * inP * (1 - inP)
	}
	for _, v := range order {
		p := exprProb(nw.Node(v).Fn, act.P)
		act.P[v] = p
		act.A[v] = 2 * p * (1 - p)
	}
	return act, nil
}

func exprProb(f sop.Expr, probs map[sop.Var]float64) float64 {
	q := 1.0
	for _, c := range f.Cubes() {
		pc := 1.0
		for _, l := range c {
			p, ok := probs[l.Var()]
			if !ok {
				p = 0.5
			}
			if l.IsNeg() {
				p = 1 - p
			}
			pc *= p
		}
		q *= 1 - pc
	}
	return 1 - q
}

// CubeActivity scores a function cube: the sum of its literals'
// switching activities — an estimate of the capacitance switched by
// the wires this cube reads.
func (a *Activities) CubeActivity(c sop.Cube) float64 {
	t := 0.0
	for _, l := range c {
		t += a.A[l.Var()]
	}
	return t
}

// Valuer returns a rect.Valuer that values each KC-matrix entry by
// its activity-weighted literal count, scaled so weights stay
// integral (the rectangle machinery works in ints). scale is the
// number of units per activity point; 16 works well.
func (a *Activities) Valuer(m *kcm.Matrix, covered *rect.Cover, scale float64) rect.Valuer {
	rowOf := map[int64]*kcm.Row{}
	for _, r := range m.Rows() {
		for _, e := range r.Entries {
			rowOf[e.CubeID] = r
		}
	}
	return func(e kcm.Entry) int {
		if covered.Has(e.CubeID) {
			return 0
		}
		r := rowOf[e.CubeID]
		if r == nil {
			return e.Weight
		}
		col := m.Col(e.Col)
		fc, ok := r.CoKernel.Union(col.Cube)
		if !ok {
			return 0
		}
		w := a.CubeActivity(fc) * scale
		if w < 1 {
			w = 1
		}
		return int(math.Round(w))
	}
}

// Result summarizes a power-driven extraction.
type Result struct {
	// Extracted counts materialized kernels.
	Extracted int
	// LCBefore/LCAfter bracket the literal counts.
	LCBefore, LCAfter int
	// ActivityBefore/ActivityAfter bracket the activity-weighted
	// literal cost Σ over cubes of Σ over literals of activity.
	ActivityBefore, ActivityAfter float64
}

// NetworkActivityCost scores a whole network: the sum over all node
// cubes of their activity (the quantity power-driven extraction
// minimizes).
func NetworkActivityCost(nw *network.Network, act *Activities) float64 {
	t := 0.0
	for _, v := range nw.NodeVars() {
		for _, c := range nw.Node(v).Fn.Cubes() {
			t += act.CubeActivity(c)
		}
	}
	return t
}

// Extract performs greedy power-weighted kernel extraction: one
// matrix build and extract.GreedyCover, the cover of
// extract.KernelExtract, with rectangle values weighted by switching
// activity.
func Extract(nw *network.Network, opt kernels.Options, rc rect.Config) (Result, error) {
	act, err := Compute(nw, 0.5)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		LCBefore:       nw.Literals(),
		ActivityBefore: NetworkActivityCost(nw, act),
	}
	ctx := context.Background()
	m := kcm.Build(ctx, nw, nw.NodeVars(), opt)
	covered := rect.NewCover(m)
	cover, _, _ := extract.GreedyCover(ctx, nw, m, covered, act.Valuer(m, covered, 16), extract.Options{Rect: rc})
	res.Extracted = cover.Extracted
	act2, err := Compute(nw, 0.5)
	if err != nil {
		return res, err
	}
	res.LCAfter = nw.Literals()
	res.ActivityAfter = NetworkActivityCost(nw, act2)
	return res, nil
}
