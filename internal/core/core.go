package core

import (
	"context"
	"time"

	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/vtime"
)

// Options configures a parallel factorization run.
type Options struct {
	// Kernel tunes kernel generation.
	Kernel kernels.Options
	// Rect bounds every rectangle search.
	Rect rect.Config
	// Partition tunes the min-cut partitioner (Partitioned and
	// LShaped algorithms).
	Partition partition.Options
	// BatchK, when > 1, harvests up to BatchK cube-disjoint
	// rectangles per search enumeration in the sequential,
	// partitioned and L-shaped covers (see extract.Options). The
	// replicated algorithm always synchronizes per rectangle —
	// that lockstep is the very property §3 measures.
	BatchK int
	// BuildWorkers is the goroutine count for the sharded KC-matrix
	// build (DESIGN.md §12); 0 picks GOMAXPROCS. Labels are
	// bit-identical for any value, and virtual-time charging is
	// untouched: the *modeled* matrix-generation split stays the
	// per-driver node partition regardless of how many real
	// goroutines kernel the nodes.
	BuildWorkers int
	// Model supplies the virtual-time cost constants; the zero
	// value means vtime.DefaultModel().
	Model vtime.Model
	// WorkBudget, when > 0, aborts the run once the machine's
	// virtual time exceeds it, reporting DNF — reproducing the
	// paper's "did not terminate after 10000 seconds" entries for
	// the replicated algorithm on spla and ex1010.
	WorkBudget int64
	// DisableZeroCostCheck is an ablation switch: skip the §5.3
	// zero-kernel-cost profitability re-check and always add the
	// covered cubes back before dividing, reproducing the literal
	// savings collapse of Example 5.2.
	DisableZeroCostCheck bool
	// DisableOwnerCheck is an ablation switch: make COVERED cubes
	// read as zero even to their owner, reintroducing the §5.3
	// order-dependent search bias.
	DisableOwnerCheck bool
	// BarrierDeadline arms the straggler detector of the replicated
	// and L-shaped drivers: a worker that keeps its peers waiting at
	// a barrier longer than this is declared lost and the round is
	// aborted coherently instead of deadlocking. 0 disables
	// detection (the faithful-reproduction default; the service
	// layer always sets it).
	BarrierDeadline time.Duration
}

func (o Options) model() vtime.Model {
	if o.Model == (vtime.Model{}) {
		return vtime.DefaultModel()
	}
	return o.Model
}

// RunResult reports one algorithm run. Speedups in the paper's tables
// are computed as the ratio of the sequential baseline's VirtualTime
// to the parallel run's VirtualTime on the same input.
type RunResult struct {
	// Algorithm names the algorithm ("sequential", "replicated",
	// "partitioned", "lshaped").
	Algorithm string
	// P is the number of virtual processors.
	P int
	// LC is the network literal count after the run.
	LC int
	// Extracted counts kernels materialized as nodes.
	Extracted int
	// Calls counts factorization calls (matrix build + cover).
	Calls int
	// VirtualTime is the modeled makespan (max worker clock).
	VirtualTime int64
	// TotalWork is the summed worker clocks — grows with
	// redundancy even when VirtualTime shrinks.
	TotalWork int64
	// Barriers counts completed barrier synchronizations.
	Barriers int64
	// WallClock is the real elapsed time (informational only on a
	// single-core host; see DESIGN.md).
	WallClock time.Duration
	// DNF reports that the run exceeded its work budget and was
	// aborted, like the paper's '-' entries in Table 2.
	DNF bool
	// Cancelled reports that the run stopped early because its
	// context was cancelled or its deadline expired. The network is
	// function-equivalent to the input (partial factorization only),
	// but the reported metrics cover only the work done.
	Cancelled bool
	// Recovered counts worker failures the driver absorbed without
	// failing the run: partitions requeued onto survivors
	// (partitioned), rounds restarted on the surviving workers
	// (L-shaped). The result is complete and function-equivalent —
	// only redundant work was added.
	Recovered int
	// Build sums the run's matrix-build counters: nodes re-kerneled
	// vs served from the incremental cache, wall time inside builds,
	// and arena bytes recycled.
	Build kcm.BuildStats
	// Failure is non-nil when the run could not be completed because
	// of a worker panic or straggler the driver could not absorb
	// (always, for the replicated driver: its lockstep replicas
	// cannot continue short-handed). The network is still
	// function-equivalent to the input — every completed extraction
	// preserves function — so the caller may retry on it as-is; the
	// service layer's recovery ladder does exactly that.
	Failure error
}

// chargeWork converts an extract.Work bundle into virtual time on
// worker w's clock.
func chargeWork(mc *vtime.Machine, w int, work extract.Work) {
	mc.ChargeKernelPairs(w, work.KernelPairs)
	mc.ChargeMatrixEntries(w, work.MatrixEntries)
	mc.ChargeSearchVisits(w, work.SearchVisits)
	mc.ChargeDivisionCubes(w, work.DivisionCubes)
}

// Sequential runs the baseline SIS-style factorization to fixpoint on
// a single virtual processor and reports its virtual time — the
// numerator of every speedup in Tables 2, 3 and 6. Cancelling ctx
// stops the run at the next rectangle boundary with Cancelled set.
func Sequential(ctx context.Context, nw *network.Network, opt Options) RunResult {
	mc := vtime.NewMachine(1, opt.model())
	start := time.Now()
	res, calls := extract.Repeat(ctx, nw, nil, extract.Options{
		Kernel:       opt.Kernel,
		Rect:         opt.Rect,
		BatchK:       opt.BatchK,
		BuildWorkers: opt.BuildWorkers,
	})
	chargeWork(mc, 0, res.Work)
	return RunResult{
		Algorithm:   "sequential",
		P:           1,
		LC:          nw.Literals(),
		Extracted:   res.Extracted,
		Calls:       calls,
		VirtualTime: mc.Elapsed(),
		TotalWork:   mc.TotalWork(),
		WallClock:   time.Since(start),
		Cancelled:   res.Cancelled,
		Build:       res.Build,
	}
}

// Speedup returns base.VirtualTime / run.VirtualTime, the S columns
// of the paper's tables.
func Speedup(base, run RunResult) float64 {
	if run.VirtualTime == 0 || run.DNF {
		return 0
	}
	return float64(base.VirtualTime) / float64(run.VirtualTime)
}
