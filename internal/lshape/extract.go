package lshape

import (
	"context"

	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/sop"
)

// Options configures L-shaped extraction.
type Options struct {
	// Kernel tunes kernel generation.
	Kernel kernels.Options
	// Rect bounds each rectangle search.
	Rect rect.Config
	// Partition tunes the min-cut partitioner used by Run.
	Partition partition.Options
	// BatchK, when > 1, harvests up to BatchK cube-disjoint
	// rectangles per search enumeration (see extract.Options).
	BatchK int
}

// CallResult summarizes one L-shaped factorization call.
type CallResult struct {
	// Extracted is the number of kernels materialized.
	Extracted int
	// PerProc is the work each virtual processor performed; the
	// sequential driver executes them one after another (Table 4),
	// the parallel driver (internal/core) concurrently (Table 6).
	PerProc []extract.Work
	// Exchange reports the B_ij entries shipped between
	// processors.
	Exchange ExchangeStats
	// NewNodes lists, per processor, the node variables created by
	// its extractions, for partition maintenance across calls.
	NewNodes [][]sop.Var
}

// Work sums the per-processor work.
func (c *CallResult) Work() extract.Work {
	var w extract.Work
	for _, pw := range c.PerProc {
		w.Add(pw)
	}
	return w
}

// BuildMatrices builds one KC matrix per partition with
// processor-offset labels: partition p is labeled by a proc-p Patcher.
func BuildMatrices(nw *network.Network, parts [][]sop.Var, opts kernels.Options) []*kcm.Matrix {
	mats := make([]*kcm.Matrix, len(parts))
	for p, part := range parts {
		mats[p] = kcm.NewPatcher(p, opts).Rebuild(context.TODO(), nw, part, 1)
	}
	return mats
}

// ExtractCall performs one L-shaped factorization call with the
// matrices processed sequentially in processor order — the Table 4
// experiment ("L-shaped partitioning on a single processor"): build
// per-partition matrices, distribute cube ownership, exchange the
// B_ij blocks, then greedily cover each L-shaped matrix with a
// covered-cube set shared across all of them.
func ExtractCall(nw *network.Network, parts [][]sop.Var, opt Options) CallResult {
	res := CallResult{
		PerProc:  make([]extract.Work, len(parts)),
		NewNodes: make([][]sop.Var, len(parts)),
	}
	mats := BuildMatrices(nw, parts, opt.Kernel)
	for p, m := range mats {
		res.PerProc[p].KernelPairs += len(m.Rows())
		res.PerProc[p].MatrixEntries += m.NumEntries()
	}
	own := Distribute(mats)
	ls, exch := Assemble(mats, own)
	res.Exchange = exch
	var maxCube int64
	for _, l := range ls {
		if id := l.M.MaxCubeID(); id > maxCube {
			maxCube = id
		}
	}
	// One covered-cube set shared across every L-matrix; each matrix
	// gets its own Cover binding (per-matrix column-value cache).
	set := rect.NewCubeSet(maxCube)
	covers := make([]*rect.Cover, len(ls))
	for p, l := range ls {
		covers[p] = rect.NewCoverShared(l.M, set)
	}
	k := opt.BatchK
	if k < 1 {
		k = 1
	}
	for p, l := range ls {
		cfg := opt.Rect
		cfg.Cover = covers[p]
		for {
			batch, stats := rect.BestK(l.M, cfg, nil, k)
			res.PerProc[p].SearchVisits += stats.Visits
			if len(batch) == 0 {
				break
			}
			for _, best := range batch {
				kernel := extract.KernelOf(l.M, best)
				v, _, touched, changed := extract.ApplyRect(nw, l.M, best, kernel, covers[p])
				res.PerProc[p].DivisionCubes += touched
				if changed {
					res.Extracted++
					res.NewNodes[p] = append(res.NewNodes[p], v)
				}
			}
		}
	}
	return res
}

// RunResult summarizes a Run to fixpoint.
type RunResult struct {
	// Calls is the number of factorization calls made.
	Calls int
	// Extracted is the total number of kernels extracted.
	Extracted int
	// Work is the total work across calls and processors.
	Work extract.Work
	// Parts is the final node partition (including created nodes).
	Parts [][]sop.Var
}

// Run partitions nw's nodes k ways by min-cut once, then repeats
// L-shaped factorization calls until a call extracts nothing. Nodes
// created by processor p's extractions join p's partition.
func Run(nw *network.Network, k int, opt Options) RunResult {
	parts := partition.KWay(nw, nil, k, opt.Partition)
	var res RunResult
	res.Parts = parts
	for {
		res.Calls++
		call := ExtractCall(nw, res.Parts, opt)
		res.Extracted += call.Extracted
		w := call.Work()
		res.Work.Add(w)
		if call.Extracted == 0 {
			break
		}
		for p := range res.Parts {
			res.Parts[p] = append(res.Parts[p], call.NewNodes[p]...)
		}
	}
	return res
}
