package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/extract"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/sop"
	"repro/internal/vtime"
)

// partMaxAttempts bounds how often one partition is retried after its
// worker panicked mid-factorization before it is given up on. A
// given-up partition is simply left unfactored — the merged network
// stays function-equivalent, only that partition's literal savings
// are lost — and the run reports Failure so the service ladder can
// decide to retry or degrade.
const partMaxAttempts = 3

// Partitioned runs the §4 parallel algorithm on p virtual
// processors: the circuit is min-cut partitioned into p parts and
// each worker factors its part completely independently — no
// synchronization, no interaction. Each worker effectively covers
// only a horizontal slice of the global co-kernel cube matrix, so
// rectangles spanning partitions are missed and kernels get
// duplicated (Example 4.1), but the search space per worker shrinks
// superlinearly — the source of the paper's super-linear speedups.
//
// Per-partition isolation is also the unit of recovery: partitions
// move through a work queue, every attempt factors a fresh detached
// clone, and a worker panic discards only that clone and requeues
// only that partition onto the surviving workers — never the whole
// job. Work is charged to the partition's own virtual clock
// regardless of which goroutine runs it, so the modeled speedups are
// untouched by recovery scheduling.
func Partitioned(ctx context.Context, nw *network.Network, p int, opt Options) RunResult {
	mc := vtime.NewMachine(p, opt.model())
	start := time.Now()
	res := RunResult{Algorithm: "partitioned", P: p}

	parts := partition.KWay(nw, nil, p, opt.Partition)
	clones := make([]*network.Network, p)
	results := make([]extract.Result, p)
	callCounts := make([]int, p)
	attempts := make([]int, p)
	gaveUp := make([]bool, p)

	// The work queue holds partition indices. Capacity covers every
	// possible requeue, so pushes never block.
	tasks := make(chan int, p*partMaxAttempts)
	for i := 0; i < p; i++ {
		tasks <- i
	}
	var qmu sync.Mutex
	// unfinished is guarded by qmu; when it reaches zero the queue
	// closes and the workers drain out.
	unfinished := p
	var failMu sync.Mutex
	// failures is guarded by failMu.
	var failures []*WorkerFailure

	// settle accounts for one popped task: a successful attempt (or
	// an exhausted one) retires the partition; a failed attempt with
	// budget left requeues it for a surviving worker.
	settle := func(idx int, ok bool) {
		qmu.Lock()
		defer qmu.Unlock()
		if ok || attempts[idx] >= partMaxAttempts {
			if !ok {
				gaveUp[idx] = true
			}
			unfinished--
			if unfinished == 0 {
				close(tasks)
			}
			return
		}
		tasks <- idx
	}

	// runPartition is one attempt: fresh clone, independent
	// factorization, publish. The Guard fence means a panic anywhere
	// inside (including injected ones) costs exactly this attempt.
	runPartition := func(idx int) {
		var wf *WorkerFailure
		qmu.Lock()
		attempts[idx]++
		qmu.Unlock()
		Guard("partitioned", idx, func(f *WorkerFailure) { wf = f }, func() {
			fault.Inject(fault.PointPartitionedExtract)
			clone := nw.CloneDetached()
			r, calls := extract.Repeat(ctx, clone, parts[idx], extract.Options{
				Kernel:       opt.Kernel,
				Rect:         opt.Rect,
				BatchK:       opt.BatchK,
				BuildWorkers: opt.BuildWorkers,
			})
			clones[idx] = clone
			results[idx] = r
			callCounts[idx] = calls
			chargeWork(mc, idx, r.Work)
		})
		if wf != nil {
			clones[idx] = nil // discard the broken clone
			failMu.Lock()
			failures = append(failures, wf)
			failMu.Unlock()
		}
		settle(idx, wf == nil)
	}

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go Guard("partitioned", w, nil, func() {
			defer wg.Done()
			for idx := range tasks {
				runPartition(idx)
			}
		})
	}
	wg.Wait()

	// Merge the independently factored partitions back into the
	// caller's network. A cancelled run still merges: each clone is
	// function-equivalent to its input, so the merged network is too.
	// A partition whose every attempt died has no clone and is left
	// as submitted.
	orig := map[sop.Var]bool{}
	for _, v := range nw.NodeVars() {
		orig[v] = true
	}
	var mergeFailure error
	for w := 0; w < p; w++ {
		if clones[w] == nil {
			continue
		}
		var wf *WorkerFailure
		Guard("partitioned", w, func(f *WorkerFailure) { wf = f }, func() {
			fault.Inject(fault.PointPartitionedMerge)
			if err := mergeBack(nw, clones[w], parts[w], orig, w); err != nil {
				panic(err)
			}
		})
		if wf != nil {
			// The partial merge is still function-equivalent
			// (every completed rewrite preserved its node's
			// function); only this partition's savings are lost.
			failMu.Lock()
			failures = append(failures, wf)
			failMu.Unlock()
			if mergeFailure == nil {
				mergeFailure = wf
			}
			continue
		}
		res.Extracted += results[w].Extracted
		res.Build.Add(results[w].Build)
		res.Cancelled = res.Cancelled || results[w].Cancelled
		if callCounts[w] > res.Calls {
			res.Calls = callCounts[w]
		}
	}

	// Requeues that led to a completed partition count as recovered;
	// a partition that exhausted its attempts (or failed its merge)
	// fails the run for the service ladder to handle.
	for i := 0; i < p; i++ {
		if gaveUp[i] {
			res.Failure = fmt.Errorf("core: partition %d exhausted %d attempts: %w",
				i, partMaxAttempts, firstFailureFor(failures, i))
			continue
		}
		res.Recovered += attempts[i] - 1
	}
	if res.Failure == nil && mergeFailure != nil {
		res.Failure = mergeFailure
	}

	res.LC = nw.Literals()
	res.VirtualTime = mc.Elapsed()
	res.TotalWork = mc.TotalWork()
	res.WallClock = time.Since(start)
	return res
}

// firstFailureFor returns the first recorded failure for worker idx,
// or nil.
func firstFailureFor(failures []*WorkerFailure, idx int) error {
	for _, f := range failures {
		if f.Worker == idx {
			return f
		}
	}
	return nil
}

// errMergeNames reports a pathological namespace that exhausted the
// merge-back name search.
var errMergeNames = errors.New("core: merge-back could not find a free node name")

// mergeNameAttempts bounds the fresh-candidate search per merged
// node. Generated names embed a strictly increasing counter, so under
// any sane namespace the first candidate is free; the cap only exists
// so a pathological input that squats on the whole generated-name
// space turns into an error instead of an unbounded loop.
const mergeNameAttempts = 10000

// mergeBack copies worker w's factored partition from its clone into
// main: new nodes (extracted kernels) are re-created under
// collision-free names, and the partition's node functions are
// rewritten with translated variables. Variables that existed before
// the run have identical ids in main and clone (detached clones
// preserve assignments), so only new nodes need mapping.
//
// On a name-exhaustion error the nodes added so far are removed
// again, leaving main exactly as it was for this partition — the
// caller keeps a function-equivalent network either way.
func mergeBack(main, clone *network.Network, part []sop.Var, orig map[sop.Var]bool, w int) error {
	vmap := map[sop.Var]sop.Var{}
	translate := func(f sop.Expr) sop.Expr {
		cubes := make([]sop.Cube, 0, f.NumCubes())
		for _, c := range f.Cubes() {
			lits := make([]sop.Lit, 0, len(c))
			for _, l := range c {
				v := l.Var()
				if mv, ok := vmap[v]; ok {
					v = mv
				}
				lits = append(lits, sop.MkLit(v, l.IsNeg()))
			}
			nc, ok := sop.NewCube(lits...)
			if ok {
				cubes = append(cubes, nc)
			}
		}
		return sop.NewExpr(cubes...)
	}
	// New nodes in creation order only ever reference original
	// variables or earlier new nodes, so one forward pass suffices.
	// Generated names can collide with node names present in parsed
	// input (nothing stops a BLIF file from declaring "[w0_0]"), so
	// keep drawing candidates until one is free — up to the attempts
	// cap — rather than panicking on a duplicate.
	i := 0
	var added []sop.Var
	for _, v := range clone.NodeVars() {
		if orig[v] {
			continue
		}
		var mv sop.Var
		found := false
		for try := 0; try < mergeNameAttempts; try++ {
			name := fmt.Sprintf("[w%d_%d]", w, i)
			i++
			var err error
			if mv, err = main.AddNode(name, translate(clone.Node(v).Fn)); err == nil {
				found = true
				break
			}
		}
		if !found {
			for _, a := range added {
				main.RemoveNode(a)
			}
			return fmt.Errorf("%w (partition %d, %d attempts)", errMergeNames, w, mergeNameAttempts)
		}
		added = append(added, mv)
		vmap[v] = mv
	}
	for _, v := range part {
		if err := main.SetFn(v, translate(clone.Node(v).Fn)); err != nil {
			// Partition members are nodes of main by construction;
			// a failure here means the clone diverged and the safe
			// choice is to keep main's current (equivalent) function.
			continue
		}
	}
	return nil
}
