// Package extract implements sequential algebraic factorization as in
// SIS (paper §2): build the co-kernel cube matrix of the network once,
// then greedily cover it — repeatedly find the maximum-gain rectangle,
// materialize its kernel as a new node, divide the affected functions,
// mark the covered cubes (the matrix's '*' entries), and continue on
// the same matrix until no profitable rectangle remains.
//
// Because the matrix goes stale as functions are rewritten, division
// uses the paper's §5.3 discipline: if extracting the rectangle is
// still profitable assuming the kernel costs nothing, the covered
// cubes are first added back to the function (they are absorbed
// cubes, so the function is unchanged) to guarantee divisibility;
// otherwise the division is attempted on the existing representation.
//
// This one-build-plus-cover routine is one "factorization invocation"
// of Table 1, and the unit all three parallel algorithms decompose.
package extract

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

// Options configures an extraction call.
type Options struct {
	// Kernel tunes kernel generation.
	Kernel kernels.Options
	// Rect bounds the rectangle search.
	Rect rect.Config
	// MaxExtractions caps rectangles extracted in this call;
	// 0 means until no profitable rectangle remains.
	MaxExtractions int
	// BatchK, when > 1, harvests up to BatchK cube-disjoint
	// rectangles per search enumeration instead of one — the same
	// greedy cover with the enumeration cost amortized. 0/1 is the
	// faithful one-rectangle-per-search SIS behaviour.
	BatchK int
	// OnExtract, when non-nil, observes each accepted rectangle.
	OnExtract func(kernel sop.Expr, r rect.Rect)
	// Patcher, when non-nil, supplies the incremental matrix builder:
	// the call reuses its cached per-node kernels and re-kernels only
	// nodes marked dirty (by earlier calls on the same patcher). When
	// nil, a call-local patcher is used — still the parallel proto
	// build, but with no caching across calls.
	Patcher *kcm.Patcher
	// BuildWorkers is the worker count for the sharded matrix build.
	// 0 picks GOMAXPROCS; the result is bit-identical to a sequential
	// build for any value.
	BuildWorkers int
}

// Work quantifies the computation an extraction performed. The
// virtual-time machine model charges these counters to worker clocks,
// so every algorithm reports them uniformly.
type Work struct {
	// KernelPairs is the number of (kernel, co-kernel) pairs
	// generated.
	KernelPairs int
	// MatrixEntries is the number of KC-matrix entries built.
	MatrixEntries int
	// SearchVisits is the number of rectangle search-tree nodes
	// expanded.
	SearchVisits int
	// DivisionCubes is the number of function cubes touched while
	// dividing networks.
	DivisionCubes int
}

// Add accumulates w2 into w.
func (w *Work) Add(w2 Work) {
	w.KernelPairs += w2.KernelPairs
	w.MatrixEntries += w2.MatrixEntries
	w.SearchVisits += w2.SearchVisits
	w.DivisionCubes += w2.DivisionCubes
}

// Total is the scalar work measure (sum of counters); each counter is
// roughly one inner-loop step of the corresponding phase.
func (w Work) Total() int {
	return w.KernelPairs + w.MatrixEntries + w.SearchVisits + w.DivisionCubes
}

// Result summarizes an extraction call.
type Result struct {
	// Extracted is the number of kernels materialized as nodes.
	Extracted int
	// Iterations is the number of greedy cover steps taken
	// (rectangle searches, including the final empty one).
	Iterations int
	// GainEstimate sums the gains of accepted rectangles.
	GainEstimate int
	// Work is the computation performed.
	Work Work
	// Build is the matrix-build work of this call (a delta, not the
	// patcher's cumulative counters): nodes re-kerneled vs reused,
	// build wall time, arena recycling.
	Build kcm.BuildStats
	// Cancelled reports that the call stopped early because its
	// context was cancelled or its deadline expired. The network is
	// left in a consistent (partially factored, function-preserving)
	// state.
	Cancelled bool
}

// KernelExtract performs one factorization call on the given nodes of
// nw: one matrix build plus a full greedy rectangle cover. New nodes
// created for extracted kernels do not join this call's matrix (they
// are candidates for the next call, as in SIS). Passing nil nodes
// factors every current node.
//
// Cancellation is cooperative: ctx is checked during the matrix build
// and before every best-rectangle pick, so a cancelled call returns
// promptly with Result.Cancelled set and the network function-
// equivalent to its input (every completed extraction preserves it).
func KernelExtract(ctx context.Context, nw *network.Network, nodes []sop.Var, opt Options) Result {
	if nodes == nil {
		nodes = nw.NodeVars()
	}
	var res Result
	pat := opt.Patcher
	if pat == nil {
		pat = kcm.NewPatcher(0, opt.Kernel)
	}
	workers := opt.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	before := pat.Stats()
	m := pat.Rebuild(ctx, nw, nodes, workers)
	res.Build = pat.Stats().Sub(before)
	// Only work actually performed is charged: rows and entries served
	// from the patcher's cache cost nothing this call.
	res.Work.KernelPairs += int(res.Build.PairsKerneled)
	res.Work.MatrixEntries += int(res.Build.EntriesBuilt)
	if ctx.Err() != nil {
		res.Cancelled = true
		return res
	}
	covered := rect.NewCover(m)
	cfg := opt.Rect
	cfg.Cover = covered
	k := opt.BatchK
	if k < 1 {
		k = 1
	}
outer:
	for {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		if opt.MaxExtractions > 0 && res.Extracted >= opt.MaxExtractions {
			break
		}
		res.Iterations++
		batch, stats := rect.BestK(m, cfg, nil, k)
		res.Work.SearchVisits += stats.Visits
		if len(batch) == 0 {
			break
		}
		for _, best := range batch {
			if opt.MaxExtractions > 0 && res.Extracted >= opt.MaxExtractions {
				break outer
			}
			kernel := KernelOf(m, best)
			_, dirty, touched, changed := ApplyRect(nw, m, best, kernel, covered)
			for _, dv := range dirty {
				pat.MarkDirty(dv)
			}
			res.Work.DivisionCubes += touched
			if changed && opt.OnExtract != nil {
				opt.OnExtract(kernel, best)
			}
			if changed {
				res.Extracted++
				res.GainEstimate += best.Gain
			}
		}
	}
	return res
}

// Repeat calls KernelExtract until a call extracts nothing, the way a
// synthesis script invokes factorization repeatedly. It returns the
// accumulated result and the number of calls made. A cancelled ctx
// ends the loop at the next call boundary with Cancelled set.
//
// Repeat owns one incremental Patcher across all its calls (unless the
// caller supplied one): every call after the first re-kernels only the
// nodes the previous call's divisions touched, instead of rebuilding
// the whole matrix from scratch.
func Repeat(ctx context.Context, nw *network.Network, nodes []sop.Var, opt Options) (Result, int) {
	var total Result
	calls := 0
	if opt.Patcher == nil {
		opt.Patcher = kcm.NewPatcher(0, opt.Kernel)
	}
	active := nodes
	if active == nil {
		active = nw.NodeVars()
	}
	for {
		calls++
		before := nw.NumNodes()
		res := KernelExtract(ctx, nw, active, opt)
		total.Extracted += res.Extracted
		total.Iterations += res.Iterations
		total.GainEstimate += res.GainEstimate
		total.Work.Add(res.Work)
		total.Build.Add(res.Build)
		if res.Cancelled {
			total.Cancelled = true
			break
		}
		if res.Extracted == 0 {
			break
		}
		// New nodes join the candidate set for the next call.
		vars := nw.NodeVars()
		active = append(active, vars[before:]...)
	}
	return total, calls
}

// KernelOf reconstructs the kernel expression a rectangle denotes:
// the sum of its column cubes.
func KernelOf(m *kcm.Matrix, r rect.Rect) sop.Expr {
	cubes := make([]sop.Cube, 0, len(r.Cols))
	for _, c := range r.Cols {
		cubes = append(cubes, m.Col(c).Cube.Clone())
	}
	return sop.NewExpr(cubes...)
}

// ApplyRect materializes rectangle r's kernel as a new node and
// divides the function of every node appearing in r's rows, marking
// all of r's cubes covered. It returns the new node's variable (valid
// only when changed is true — otherwise the node is removed again),
// the nodes whose functions were rewritten (the set an incremental
// builder must re-kernel), the number of cubes touched, and whether
// any function changed.
func ApplyRect(nw *network.Network, m *kcm.Matrix, r rect.Rect, kernel sop.Expr, covered *rect.Cover) (sop.Var, []sop.Var, int, bool) {
	v := nw.NewNodeVar(kernel)
	touched := kernel.NumCubes()
	changed := false
	var dirty []sop.Var
	for _, nr := range GroupRows(m, r) {
		zc, addBack := ZeroCostGain(m, nr, covered)
		t, ch := DivideNode(nw, nr.Node, v, kernel, addBack, zc)
		touched += t
		if ch {
			dirty = append(dirty, nr.Node)
		}
		changed = changed || ch
	}
	// Mark every cube of the rectangle covered, fresh or not —
	// their literal value has been spent.
	for _, rid := range r.Rows {
		row := m.Row(rid)
		for _, c := range r.Cols {
			if e, ok := row.Entry(c); ok {
				covered.Mark(e.CubeID)
			}
		}
	}
	if !changed {
		nw.RemoveNode(v)
	}
	return v, dirty, touched, changed
}

// NodeRows groups one node's rows of a rectangle: the unit of
// division (and, in the parallel algorithms, of forwarding to the
// node's owning processor).
type NodeRows struct {
	// Node is the network variable to divide.
	Node sop.Var
	// Rows are the rectangle's row ids belonging to Node.
	Rows []int64
	// Cols are the rectangle's columns.
	Cols []int64
}

// GroupRows splits rectangle r by owning node, deterministically.
func GroupRows(m *kcm.Matrix, r rect.Rect) []NodeRows {
	byNode := map[sop.Var]*NodeRows{}
	var order []sop.Var
	for _, rid := range r.Rows {
		node := m.Row(rid).Node
		nr, ok := byNode[node]
		if !ok {
			nr = &NodeRows{Node: node, Cols: r.Cols}
			byNode[node] = nr
			order = append(order, node)
		}
		nr.Rows = append(nr.Rows, rid)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]NodeRows, 0, len(order))
	for _, v := range order {
		out = append(out, *byNode[v])
	}
	return out
}

// ZeroCostGain evaluates the §5.3 profitability check for one node's
// portion of a rectangle: the literal gain of rewriting its rows
// assuming the kernel itself costs nothing, under the current covered
// state. It also returns the function cubes the rows denote, for the
// add-back step.
func ZeroCostGain(m *kcm.Matrix, nr NodeRows, covered *rect.Cover) (int, []sop.Cube) {
	gain := 0
	var cubes []sop.Cube
	for _, rid := range nr.Rows {
		row := m.Row(rid)
		rowVal := 0
		for _, c := range nr.Cols {
			e, ok := row.Entry(c)
			if !ok {
				continue
			}
			if !covered.Has(e.CubeID) {
				rowVal += e.Weight
			}
			fc, ok2 := row.CoKernel.Union(m.Col(c).Cube)
			if ok2 {
				cubes = append(cubes, fc)
			}
		}
		gain += rowVal - (row.CoKernel.Weight() + 1)
	}
	return gain, cubes
}

// DivideNode divides node's function by kernel (already materialized
// as variable v). When zeroCostGain is positive, the addBack cubes —
// absorbed cubes of the function, possibly rewritten by earlier
// extractions — are first re-added so the division succeeds (§5.3);
// otherwise the current representation is divided as-is. It returns
// the cubes touched and whether the function changed.
func DivideNode(nw *network.Network, node sop.Var, v sop.Var, kernel sop.Expr, addBack []sop.Cube, zeroCostGain int) (int, bool) {
	nd := nw.Node(node)
	if nd == nil {
		return 0, false
	}
	fn := nd.Fn
	touched := fn.NumCubes()
	if zeroCostGain > 0 && len(addBack) > 0 {
		fn = fn.Add(sop.NewExpr(cloneCubes(addBack)...))
		touched += len(addBack)
	}
	q, rem := fn.Div(kernel)
	if q.IsZero() {
		return touched, false
	}
	nf := q.MulCube(sop.Cube{sop.Pos(v)}).Add(rem)
	if nf.Literals() >= nd.Fn.Literals() {
		// Dividing the stale representation would not help this
		// node; keep it unchanged.
		return touched, false
	}
	nw.SetFn(node, nf)
	return touched + nf.NumCubes(), true
}

func cloneCubes(cs []sop.Cube) []sop.Cube {
	out := make([]sop.Cube, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}
