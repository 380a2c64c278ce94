package lshape

import (
	"context"

	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

// BuildMatrices builds one KC matrix per partition with
// processor-offset labels: partition p is labeled by a proc-p Patcher.
func BuildMatrices(nw *network.Network, parts [][]sop.Var, opts kernels.Options) []*kcm.Matrix {
	mats := make([]*kcm.Matrix, len(parts))
	for p, part := range parts {
		mats[p] = kcm.NewPatcher(p, opts).Rebuild(context.TODO(), nw, part, 1)
	}
	return mats
}

// Run is L-shaped factorization with the processors executed one
// after another — the Table 4 experiment ("L-shaped partitioning on a
// single processor"). Each call builds one matrix per partition,
// distributes cube ownership, exchanges the B_ij blocks, then greedily
// covers the L-shaped matrices in processor order with one
// covered-cube set shared across all of them. Calls repeat until one
// extracts nothing or ctx is cancelled; nodes created by processor p's
// extractions join parts[p] for the next call. It returns the
// accumulated result and the number of calls made.
func Run(ctx context.Context, nw *network.Network, parts [][]sop.Var, opt extract.Options) (extract.Result, int) {
	var total extract.Result
	for calls := 1; ; calls++ {
		mats := BuildMatrices(nw, parts, opt.Kernel)
		ls, _ := Assemble(mats, Distribute(mats))
		var maxCube int64
		for p, m := range mats {
			total.Work.KernelPairs += len(m.Rows())
			total.Work.MatrixEntries += m.NumEntries()
			maxCube = max(maxCube, ls[p].M.MaxCubeID())
		}
		set := rect.NewCubeSet(maxCube)
		extracted := 0
		for p, l := range ls {
			res, created, _ := extract.GreedyCover(ctx, nw, l.M, rect.NewCoverShared(l.M, set), nil, opt)
			extracted += res.Extracted
			total.Extracted += res.Extracted
			total.Iterations += res.Iterations
			total.GainEstimate += res.GainEstimate
			total.Work.Add(res.Work)
			total.Cancelled = total.Cancelled || res.Cancelled
			parts[p] = append(parts[p], created...)
		}
		if extracted == 0 || total.Cancelled {
			return total, calls
		}
	}
}
