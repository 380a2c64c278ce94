package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/fault"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/sop"
	"repro/internal/vtime"
)

// LShaped runs the §5 parallel algorithm on p virtual processors:
// min-cut partitioning, per-partition KC matrices with offset labels,
// a master pass distributing disjoint kernel-cube ownership, exchange
// of the overlapping B_ij blocks to form L-shaped matrices, and a
// concurrent greedy cover in which workers speculatively cover cubes
// in a shared state table (value/trueval/owner, Table 5), forward
// partial rectangles that touch foreign nodes to those nodes' owners,
// and re-check profitability at zero kernel cost before re-expanding
// covered cubes (§5.3). No per-step synchronization is needed, yet
// the overlap lets partition-spanning rectangles be found — the
// paper's compromise between the replicated and independent designs.
//
// A lost worker (panic, or straggler past Options.BarrierDeadline)
// aborts only its call: survivors exit at their next barrier in
// agreement, every division already applied is kept (each one
// preserved its node's function), and the dead worker's partitions
// are requeued onto the survivors for the next call — the fixpoint
// loop then redoes only the lost partitions' remaining
// opportunities, never the whole job. Only when no survivor is left
// (or failures keep repeating past a retry budget) does the run
// return with RunResult.Failure for the service ladder.
func LShaped(ctx context.Context, nw *network.Network, p int, opt Options) RunResult {
	mc := vtime.NewMachine(p, opt.model())
	mc.SetBarrierDeadline(opt.BarrierDeadline)
	start := time.Now()
	res := RunResult{Algorithm: "lshaped", P: p}

	parts := partition.KWay(nw, nil, p, opt.Partition)
	// Per-worker incremental patchers: worker w's matrix labels come
	// from proc w, so each slot owns a patcher constructed with its
	// index, and only that slot's goroutine ever touches it (its own
	// divisions and the forwarded ones both run on the owner).
	// Redistribution after a failure shifts slot indices — and with
	// them label offsets — so the patchers are rebuilt from scratch
	// then: correctness is unaffected, only the cache is lost.
	pats := newPatchers(p, opt.Kernel)
	// failBudget bounds in-driver recovery: each lost worker costs
	// one unit, and a run that keeps losing workers past it stops
	// retrying and reports Failure instead of looping.
	failBudget := 2 * p
	for {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		res.Calls++
		mc.SetParticipants(len(parts))
		extracted, dnf, cancelled, failed, failure := lshapedCall(ctx, nw, parts, opt, mc, pats)
		res.Extracted += extracted
		if failure != nil {
			failBudget -= len(failed)
			survivors := len(parts) - len(failed)
			if len(failed) == 0 || survivors < 1 || failBudget < 0 {
				res.Failure = failure
				break
			}
			res.Recovered += len(failed)
			parts = redistribute(parts, failed)
			// Bank the lost generation's counters, then start fresh:
			// the surviving slots' label offsets changed.
			for _, pt := range pats {
				res.Build.Add(pt.Stats())
			}
			pats = newPatchers(len(parts), opt.Kernel)
			mc.ClearAbort()
			continue
		}
		if cancelled {
			res.Cancelled = true
			break
		}
		if dnf {
			res.DNF = true
			break
		}
		if extracted == 0 {
			break
		}
	}

	res.LC = nw.Literals()
	res.VirtualTime = mc.Elapsed()
	res.TotalWork = mc.TotalWork()
	res.Barriers = mc.Barriers()
	res.WallClock = time.Since(start)
	for _, pt := range pats {
		res.Build.Add(pt.Stats())
	}
	return res
}

// newPatchers returns one incremental matrix patcher per worker slot,
// each labeling from its slot's §5.2 offset.
func newPatchers(n int, opts kernels.Options) []*kcm.Patcher {
	ps := make([]*kcm.Patcher, n)
	for i := range ps {
		ps[i] = kcm.NewPatcher(i, opts)
	}
	return ps
}

// redistribute drops the failed workers' slots and appends their
// partitions round-robin onto the survivors, preserving slice order
// everywhere so the rebuilt ownership map and offset labels stay
// deterministic.
func redistribute(parts [][]sop.Var, failed []int) [][]sop.Var {
	bad := make([]bool, len(parts))
	for _, f := range failed {
		if f >= 0 && f < len(parts) {
			bad[f] = true
		}
	}
	out := make([][]sop.Var, 0, len(parts))
	for i, part := range parts {
		if !bad[i] {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return out
	}
	k := 0
	for i, part := range parts {
		if bad[i] {
			out[k%len(out)] = append(out[k%len(out)], part...)
			k++
		}
	}
	return out
}

// fwdMsg asks a node's owning worker to divide it by an extracted
// kernel — the partial rectangles of §5.3.
type fwdMsg struct {
	node    sop.Var
	kernel  sop.Expr
	kvar    sop.Var
	addBack []sop.Cube
	zcGain  int
}

// fwdQueue is one worker's incoming division queue.
type fwdQueue struct {
	mu sync.Mutex
	// msgs is guarded by mu.
	msgs []fwdMsg
}

func (q *fwdQueue) push(m fwdMsg) {
	q.mu.Lock()
	q.msgs = append(q.msgs, m)
	q.mu.Unlock()
}

func (q *fwdQueue) drain() []fwdMsg {
	q.mu.Lock()
	out := q.msgs
	q.msgs = nil
	q.mu.Unlock()
	return out
}

// lshapedCall performs one parallel L-shaped factorization call and
// returns the number of kernels extracted (and kept), the budget and
// cancellation flags, the workers lost this call, and the failure
// that aborted it (nil on a clean call). Its only direct state-table
// touch is the one-time SetOwnerCheck during coordinator setup,
// before any worker clock exists to charge; the workers' own touches
// are charged inside their closures.
//
//repolint:allow vtimecharge -- coordinator-side SetOwnerCheck runs before the workers start; every worker-side state-table touch is charged in its own closure
func lshapedCall(ctx context.Context, nw *network.Network, parts [][]sop.Var, opt Options, mc *vtime.Machine, pats []*kcm.Patcher) (int, bool, bool, []int, error) {
	p := len(parts)
	ownerOf := map[sop.Var]int{}
	for w, part := range parts {
		for _, v := range part {
			ownerOf[v] = w
		}
	}

	mats := make([]*kcm.Matrix, p)
	var ls []*lshape.LMatrix
	var exch lshape.ExchangeStats
	st := NewStateTable()
	st.SetOwnerCheck(!opt.DisableOwnerCheck)
	queues := make([]*fwdQueue, p)
	for w := range queues {
		queues[w] = &fwdQueue{}
	}
	var nwMu sync.Mutex // guards all network mutation and reads during cover
	newNodes := make([][]sop.Var, p)
	usedNodes := make([]map[sop.Var]bool, p)
	var overBudget atomic.Bool
	var ctxDone atomic.Bool
	var failMu sync.Mutex
	// failures is guarded by failMu.
	var failures []*WorkerFailure
	sink := func(f *WorkerFailure) {
		failMu.Lock()
		failures = append(failures, f)
		failMu.Unlock()
		// Publish the loss: survivors exit at their next barrier
		// (or at the cover loop's abort check) in agreement.
		mc.Abort(f.Error())
	}

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		body := func(w int) {
			usedNodes[w] = map[sop.Var]bool{}
			// pw is this worker's own patcher; no other goroutine
			// touches it.
			pw := pats[w]

			// Phase 1: build this partition's matrix with offset
			// labels (concurrent, read-only on the network),
			// re-kerneling only the nodes this partition's divisions
			// dirtied since the last call; rows served from the
			// worker's own patcher cost nothing.
			fault.Inject(fault.PointLShapedMatrix)
			before := pw.Stats()
			mats[w] = pw.Rebuild(ctx, nw, parts[w], 1)
			d := pw.Stats().Sub(before)
			mc.ChargeKernelPairs(w, int(d.PairsKerneled))
			mc.ChargeMatrixEntries(w, int(d.EntriesBuilt))
			// Send the kernel-cube list to the master (§5.2).
			mc.ChargeSend(w, 0, len(mats[w].Cols()))
			if !mc.Barrier(w) {
				return
			}

			// Phase 2: the master distributes cube ownership and
			// the workers exchange B_ij blocks. Worker 0 computes
			// the assembly; communication costs are charged per
			// the exchange statistics.
			if w == 0 {
				own := lshape.Distribute(mats)
				ls, exch = lshape.Assemble(mats, own)
				for i := range exch.Words {
					// Mapping back to each worker.
					mc.ChargeSend(0, i, len(mats[i].Cols()))
				}
			}
			if !mc.Barrier(w) {
				return
			}
			for j := 0; j < p; j++ {
				if n := exch.Words[w][j]; n > 0 {
					mc.ChargeSend(w, j, n)
				}
			}
			if !mc.Barrier(w) {
				return
			}

			// Phase 3: concurrent greedy cover of this worker's
			// L-shaped matrix, with speculative covering in the
			// shared state table and forwarding of partial
			// rectangles. The budget is checked between
			// rectangles.
			l := ls[w]
			// banned holds cubes this worker lost a claim race
			// for: excluding them from future searches guarantees
			// progress when two workers speculate on overlapping
			// rectangles (each failed claim shrinks the loser's
			// search space; the winner divides the cubes).
			banned := rect.NewCubeSet(l.M.MaxCubeID())
			//repolint:allow vtimecharge -- per-entry Value reads during the search are amortized into ChargeSearchVisits after BestK returns (§5's search cost already prices matrix-entry touches)
			val := func(e kcm.Entry) int {
				if banned.Has(e.CubeID) {
					return 0
				}
				return st.Value(w, e.CubeID, e.Weight)
			}
			batchK := opt.BatchK
			if batchK < 1 {
				batchK = 1
			}
		cover:
			for {
				// Workers never synchronize inside the cover, so
				// each may notice cancellation at its own rectangle
				// boundary and fall through to the phase barrier.
				// A peer's failure is noticed the same way — the
				// abort check keeps a survivor from speculating on
				// for a round that is already lost.
				if ctx.Err() != nil {
					ctxDone.Store(true)
					break
				}
				if _, aborted := mc.Aborted(); aborted {
					break
				}
				fault.Inject(fault.PointLShapedCover)
				if opt.WorkBudget > 0 && mc.Clock(w) > opt.WorkBudget {
					overBudget.Store(true)
					break
				}
				var specIDs []int64
				cfg := opt.Rect
				cfg.OnBest = func(prev, next rect.Rect) {
					// Release the previous incumbent's cubes
					// (copy back truevals) and cover the new
					// one's (§5.3).
					mc.ChargeLock(w)
					if prev.Rows != nil {
						ids, _ := rectCubes(l.M, prev)
						st.Release(w, ids)
					}
					ids, weights := rectCubes(l.M, next)
					st.Cover(w, ids, weights)
					specIDs = ids
				}
				batch, stats := rect.BestK(l.M, cfg, val, batchK)
				mc.ChargeSearchVisits(w, stats.Visits)
				if len(batch) == 0 {
					if specIDs != nil {
						st.Release(w, specIDs)
					}
					break
				}
				progressed := false
				for _, best := range batch {
					ids, weights := rectCubes(l.M, best)
					// Per-node groups and their zero-cost gains,
					// evaluated before the claim consumes the
					// values.
					groups := extract.GroupRows(l.M, best)
					zc := make([]int, len(groups))
					backs := make([][]sop.Cube, len(groups))
					for gi, nr := range groups {
						zc[gi], backs[gi] = zeroCostGainState(l.M, nr, st, w)
						if opt.DisableZeroCostCheck {
							zc[gi] = 1 // always re-expand (ablation)
						}
					}
					// Atomic claim: the rectangle must still be
					// profitable with the values this worker can
					// actually bank.
					mc.ChargeLock(w)
					rowCost := 0
					for _, rid := range best.Rows {
						rowCost += l.M.Row(rid).CoKernel.Weight() + 1
					}
					kernelCost := 0
					for _, c := range best.Cols {
						kernelCost += l.M.Col(c).Cube.Weight()
					}
					_, ok := st.Claim(w, ids, weights, func(total int) bool {
						return total-rowCost-kernelCost > 0
					})
					if !ok {
						// Values were stolen by a peer: ban the
						// cubes locally and try the next
						// candidate.
						for _, id := range ids {
							banned.Add(id)
						}
						continue
					}
					progressed = true
					// Extract: create the kernel node, divide own
					// nodes, forward foreign ones.
					kernel := extract.KernelOf(l.M, best)
					nwMu.Lock()
					v := nw.NewNodeVar(kernel)
					nwMu.Unlock()
					mc.ChargeLock(w)
					newNodes[w] = append(newNodes[w], v)
					touched := kernel.NumCubes()
					for gi, nr := range groups {
						owner := ownerOf[nr.Node]
						if owner == w {
							nwMu.Lock()
							t, ch := extract.DivideNode(nw, nr.Node, v, kernel, backs[gi], zc[gi])
							nwMu.Unlock()
							touched += t
							if ch {
								usedNodes[w][v] = true
								pw.MarkDirty(nr.Node)
							}
							continue
						}
						queues[owner].push(fwdMsg{
							node: nr.Node, kernel: kernel, kvar: v,
							addBack: backs[gi], zcGain: zc[gi],
						})
						mc.ChargeSend(w, owner, len(nr.Rows)+len(nr.Cols))
					}
					mc.ChargeDivisionCubes(w, touched)
				}
				// Process any forwarded divisions between our own
				// iterations ("once it has completed one iteration
				// of kernel extraction", §5.3).
				processForwards(nw, &nwMu, queues[w], usedNodes[w], pw, mc, w)
				if !progressed {
					// Every candidate's value was stolen by
					// peers; their state-table marks make the
					// next search converge, and an empty search
					// ends the cover.
					continue cover
				}
			}
			if !mc.Barrier(w) {
				return
			}
			// Phase 4: final drain — every extraction is done, so
			// the queues are stable.
			processForwards(nw, &nwMu, queues[w], usedNodes[w], pw, mc, w)
			mc.Barrier(w)
		}
		go Guard("lshaped", w, sink, func() {
			defer wg.Done()
			body(w)
		})
	}
	wg.Wait()

	// Keep only kernels that some division actually used; assign
	// them to their extractor's partition for the next call. The
	// per-worker sets are merged in sorted order so the loop below is
	// deterministic no matter how the map iterates (maporder).
	used := map[sop.Var]bool{}
	for _, um := range usedNodes {
		keys := make([]sop.Var, 0, len(um))
		for v := range um {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		for _, v := range keys {
			used[v] = true
		}
	}
	extracted := 0
	for w := range parts {
		for _, v := range newNodes[w] {
			if used[v] {
				parts[w] = append(parts[w], v)
				extracted++
			} else {
				nw.RemoveNode(v)
			}
		}
	}

	// Identify the workers this call lost: panickers via their Guard
	// sink, pure stragglers via the barrier deadline's missing list.
	var failure error
	var failed []int
	failMu.Lock()
	for _, f := range failures {
		failed = append(failed, f.Worker)
		if failure == nil {
			failure = f
		}
	}
	failMu.Unlock()
	if _, aborted := mc.Aborted(); aborted && failure == nil {
		failed = append(failed, mc.Missing()...)
		stuck := 0
		if len(failed) > 0 {
			stuck = failed[0]
		}
		failure = &WorkerFailure{Algorithm: "lshaped", Worker: stuck, Cause: CauseStraggler}
	}
	slices.Sort(failed)
	failed = slices.Compact(failed)
	return extracted, overBudget.Load(), ctxDone.Load(), failed, failure
}

// processForwards divides this worker's nodes by kernels extracted on
// other workers (partial rectangles, §5.3). A panic mid-drain loses
// only the undivided messages: the owning nodes keep their current
// (equivalent) functions and the kernel survives iff some other
// division used it.
func processForwards(nw *network.Network, nwMu *sync.Mutex, q *fwdQueue, used map[sop.Var]bool, pat *kcm.Patcher, mc *vtime.Machine, w int) {
	fault.Inject(fault.PointLShapedForward)
	for _, m := range q.drain() {
		nwMu.Lock()
		t, ch := extract.DivideNode(nw, m.node, m.kvar, m.kernel, m.addBack, m.zcGain)
		nwMu.Unlock()
		mc.ChargeDivisionCubes(w, t)
		mc.ChargeLock(w)
		if ch {
			used[m.kvar] = true
			// The divided node belongs to this worker's partition;
			// queue it for re-kerneling on its own patcher
			// (owner-goroutine dirty marking).
			pat.MarkDirty(m.node)
		}
	}
}

// rectCubes lists the distinct function cubes a rectangle covers,
// with their weights.
func rectCubes(m *kcm.Matrix, r rect.Rect) ([]int64, []int) {
	var ids []int64
	var weights []int
	seen := map[int64]bool{}
	for _, rid := range r.Rows {
		row := m.Row(rid)
		for _, c := range r.Cols {
			if e, ok := row.Entry(c); ok && !seen[e.CubeID] {
				seen[e.CubeID] = true
				ids = append(ids, e.CubeID)
				weights = append(weights, e.Weight)
			}
		}
	}
	return ids, weights
}

// zeroCostGainState is extract.ZeroCostGain against the shared state
// table instead of a covered set: the gain of rewriting one node's
// rows assuming the kernel costs nothing, with cube values as worker
// w currently sees them.
//
//repolint:allow vtimecharge -- read-only revalidation on the claim path; its lock cost is modeled by the caller's ChargeLock immediately before st.Claim
func zeroCostGainState(m *kcm.Matrix, nr extract.NodeRows, st *StateTable, w int) (int, []sop.Cube) {
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
			rowVal += st.Value(w, e.CubeID, e.Weight)
			if fc, ok2 := row.CoKernel.Union(m.Col(c).Cube); ok2 {
				cubes = append(cubes, fc)
			}
		}
		gain += rowVal - (row.CoKernel.Weight() + 1)
	}
	return gain, cubes
}
