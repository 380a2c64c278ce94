package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/lshape"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/rect"
	"repro/internal/sop"
	"repro/internal/tables"
)

// setupReps is how many times a run repeats its set-up; setup_s is
// the median repetition plus the single warm-up pass.
const setupReps = 3

// tjob is one driver run of a tables workload.
type tjob struct {
	circuit string
	algo    string
	p       int
	opt     core.Options
	// in is the generated input; jobs only ever run on clones of it.
	in     *network.Network
	initLC int

	// Filled by the warm-up pass.
	refText string // exact output of a deterministic driver
	seqV    int64  // V(sequential) on the same circuit
	baseV   int64  // numerator of the paper's S column for this job
}

func (j *tjob) name() string { return fmt.Sprintf("%s/%s/p%d", j.circuit, j.algo, j.p) }

func (j *tjob) deterministic() bool { return j.algo != "lshaped" }

func (j *tjob) run(ctx context.Context, nw *network.Network) core.RunResult {
	switch j.algo {
	case "sequential":
		return core.Sequential(ctx, nw, j.opt)
	case "replicated":
		return core.Replicated(ctx, nw, j.p, j.opt)
	case "partitioned":
		return core.Partitioned(ctx, nw, j.p, j.opt)
	default:
		return core.LShaped(ctx, nw, j.p, j.opt)
	}
}

// tablesWorkload describes the circuits and driver runs of one tables
// workload.
type tablesWorkload struct {
	// circuits generates the inputs from the workload seed.
	circuits func(seed int64) ([]*network.Network, error)
	// jobs lists the driver runs of one circuit.
	jobs func(name string, nw *network.Network) []*tjob
}

// tablesOpt is the paper-table configuration (EXPERIMENTS.md).
func tablesOpt() core.Options { return tables.DefaultConfig().Opt }

// replicatedOpt is Table 2's configuration of the replicated driver.
func replicatedOpt() core.Options {
	cfg := tables.DefaultConfig()
	opt := cfg.Opt
	opt.BatchK = 1
	opt.Rect.MaxVisits = cfg.ReplicatedMaxVisits
	opt.WorkBudget = cfg.ReplicatedBudget
	return opt
}

func named(names ...string) ([]*network.Network, error) {
	var out []*network.Network
	for _, n := range names {
		nw, err := gen.Benchmark(n)
		if err != nil {
			return nil, err
		}
		out = append(out, nw)
	}
	return out, nil
}

func runTablesLarge(e *runEnv) error {
	names := []string{"des", "seq", "spla", "ex1010"}
	if e.cfg.smoke {
		names = []string{"des"}
	}
	return e.runTables(tablesWorkload{
		circuits: func(int64) ([]*network.Network, error) { return named(names...) },
		jobs: func(name string, nw *network.Network) []*tjob {
			opt := tablesOpt()
			return e.withPartitioned([]*tjob{
				{circuit: name, algo: "sequential", p: 1, opt: opt},
				{circuit: name, algo: "lshaped", p: 6, opt: opt},
			}, name)
		},
	})
}

func runTablesSmall(e *runEnv) error {
	base := []string{"misex3", "dalu"}
	variants := 1
	if e.cfg.smoke {
		base = []string{"misex3"}
		variants = 0
	}
	return e.runTables(tablesWorkload{
		circuits: func(seed int64) ([]*network.Network, error) {
			out, err := named(base...)
			if err != nil {
				return nil, err
			}
			for _, n := range base {
				for v := 1; v <= variants; v++ {
					out = append(out, variant(n, seed, v))
				}
			}
			return out, nil
		},
		jobs: func(name string, nw *network.Network) []*tjob {
			opt, ropt := tablesOpt(), replicatedOpt()
			return e.withPartitioned([]*tjob{
				{circuit: name, algo: "sequential", p: 1, opt: opt},
				{circuit: name, algo: "replicated", p: 2, opt: ropt},
				{circuit: name, algo: "replicated", p: 6, opt: ropt},
				{circuit: name, algo: "lshaped", p: 2, opt: opt},
				{circuit: name, algo: "lshaped", p: 6, opt: opt},
			}, name)
		},
	})
}

// withPartitioned adds a partitioned p=6 run of the circuit when the
// run asks for the partitioned driver. By default the workloads leave
// it out: its outputs are not equivalent to its inputs on seq, spla
// and many seeded variants (NOTES.md, "Known defect").
func (e *runEnv) withPartitioned(jobs []*tjob, name string) []*tjob {
	if e.cfg.partitioned {
		jobs = append(jobs, &tjob{circuit: name, algo: "partitioned", p: 6, opt: tablesOpt()})
	}
	return jobs
}

// variant generates a circuit from a named benchmark's spec with a
// seed derived from the workload seed: the same shape and size, other
// functions.
func variant(name string, seed int64, k int) *network.Network {
	spec, ok := gen.SpecOf(name)
	if !ok {
		panic("unknown benchmark " + name)
	}
	spec.Seed = spec.Seed*1_000_003 + seed*7919 + int64(k)
	spec.Name = fmt.Sprintf("%s-v%d", name, k)
	return gen.Generate(spec)
}

// setupTables generates the circuits and the job list.
func setupTables(w tablesWorkload, seed int64) ([]*tjob, error) {
	nets, err := w.circuits(seed)
	if err != nil {
		return nil, err
	}
	var jobs []*tjob
	for _, nw := range nets {
		for _, j := range w.jobs(nw.Name, nw) {
			j.in = nw
			j.initLC = nw.Literals()
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// passRun is one job's outcome in a timed pass.
type passRun struct {
	job *tjob
	res core.RunResult
	out *network.Network
	lat time.Duration
	// composed is set when the traced run rebuilt the sequential job
	// from layer calls.
	composed *composedStats
}

func (e *runEnv) runTables(w tablesWorkload) error {
	ctx := context.Background()
	var jobs []*tjob
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		js, err := setupTables(w, e.cfg.seed)
		if err != nil {
			return err
		}
		e.setups = append(e.setups, time.Since(t0))
		jobs = js
	}

	// Warm-up pass: fixes the reference outputs and the S-column
	// bases, and lets lazy state (pools, arenas) fill before timing.
	warm := make([]*network.Network, len(jobs))
	for i, j := range jobs {
		warm[i] = j.in.CloneDetached()
	}
	replBase := map[string]*network.Network{}
	for _, j := range jobs {
		if j.algo == "replicated" && replBase[j.circuit] == nil {
			replBase[j.circuit] = j.in.CloneDetached()
		}
	}
	t0 := time.Now()
	warmRes := make([]core.RunResult, len(jobs))
	for i, j := range jobs {
		warmRes[i] = j.run(ctx, warm[i])
	}
	replV := map[string]int64{}
	for c, nw := range replBase {
		replV[c] = core.Replicated(ctx, nw, 1, replicatedOpt()).VirtualTime
	}
	e.warmup = time.Since(t0)

	seqV := map[string]int64{}
	for i, j := range jobs {
		if j.algo == "sequential" {
			seqV[j.circuit] = warmRes[i].VirtualTime
		}
	}
	for i, j := range jobs {
		j.seqV = seqV[j.circuit]
		j.baseV = j.seqV
		if j.algo == "replicated" {
			j.baseV = replV[j.circuit]
		}
		if j.deterministic() {
			j.refText = blifText(warm[i])
		}
		e.checkRun("warm-up "+j.name(), warmRes[i])
	}
	// Every warm-up output must be equivalent to its input.
	parallel(len(jobs), func(i int) {
		e.checkEquiv("warm-up "+jobs[i].name(), jobs[i].in, warm[i], int64(i))
	})
	warm = nil

	if e.cfg.traced {
		return e.tracedTables(ctx, jobs)
	}
	heap := startHeapSampler()
	_, wall, passes := e.timedPasses(ctx, jobs, e.window(), false, heap)
	e.heapPeak = heap.Stop()
	e.load.wall = wall
	e.note("%d passes of %d jobs in %.2fs", passes, len(jobs), wall.Seconds())
	return nil
}

// timedPasses runs whole passes over the jobs, in a seeded order,
// until at least d has elapsed (one pass in smoke mode), and returns
// the runs without their output networks. Inputs are cloned before a
// pass starts, and each pass is checked right after it ends; wall sums
// the passes alone, and the heap sampler, when given, runs only during
// them.
func (e *runEnv) timedPasses(ctx context.Context, jobs []*tjob, d time.Duration, traced bool, heap *heapSampler) ([]passRun, time.Duration, int) {
	var runs []passRun
	var wall time.Duration
	passes := 0
	for passes == 0 || (!e.cfg.smoke && wall < d) {
		order := e.rng.Perm(len(jobs))
		clones := make([]*network.Network, len(jobs))
		for i, j := range jobs {
			clones[i] = j.in.CloneDetached()
		}
		pass := make([]passRun, 0, len(jobs))
		if heap != nil {
			heap.resume()
		}
		start := time.Now()
		for _, i := range order {
			j := jobs[i]
			pr := passRun{job: j, out: clones[i]}
			t0 := time.Now()
			if traced {
				e.tracedJob(ctx, &pr, passes)
			} else {
				pr.res = j.run(ctx, clones[i])
			}
			pr.lat = time.Since(t0)
			pass = append(pass, pr)
		}
		wall += time.Since(start)
		if heap != nil {
			heap.pause()
		}
		e.checkPass(pass)
		runs = append(runs, pass...)
		passes++
	}
	return runs, wall, passes
}

// tracedJob runs one job with spans: a sequential job is rebuilt from
// layer calls, every other driver is one span.
func (e *runEnv) tracedJob(ctx context.Context, pr *passRun, pass int) {
	j := pr.job
	job := fmt.Sprintf("pass%d/%s", pass, j.name())
	root := e.tr.start("core."+j.algo, job, 0)
	if j.algo == "sequential" {
		st := composedSequential(ctx, pr.out, j.opt, e.tr, job, root)
		pr.composed = &st
		pr.res = core.RunResult{Algorithm: "sequential", P: 1, LC: st.lc,
			VirtualTime: st.vtime, TotalWork: st.vtime, Build: st.build}
	} else {
		pr.res = j.run(ctx, pr.out)
	}
	e.tr.stop(root)
}

// checkRun flags a driver run that did not complete.
func (e *runEnv) checkRun(what string, r core.RunResult) {
	if r.Failure != nil || r.DNF || r.Cancelled {
		e.fail("%s: run did not complete (failure %v, dnf %v, cancelled %v)", what, r.Failure, r.DNF, r.Cancelled)
	}
}

// checkPass accounts the runs of one pass and checks their outputs:
// exact text for deterministic drivers, simulation for the L-shaped
// one. It drops the output networks.
func (e *runEnv) checkPass(runs []passRun) {
	lsh, _ := e.details["lshaped_jobs"].([]map[string]any)
	for i := range runs {
		pr := &runs[i]
		j := pr.job
		e.load.attempted++
		e.checkRun(j.name(), pr.res)
		e.load.completed(j.initLC, pr.res.LC, pr.lat)
		if j.algo != "sequential" && pr.res.VirtualTime > 0 {
			e.load.speedup(float64(j.baseV) / float64(pr.res.VirtualTime))
		}
		if j.deterministic() {
			e.checkSame(j.name(), j.refText, blifText(pr.out))
		}
		if pr.composed != nil && pr.composed.vtime != j.seqV {
			e.fail("%s: traced composition charged V=%d, core.Sequential V=%d", j.name(), pr.composed.vtime, j.seqV)
		}
		if j.algo == "lshaped" {
			lsh = append(lsh, map[string]any{"job": j.name(), "lc": pr.res.LC,
				"vtime": pr.res.VirtualTime, "wall_ms": ms(pr.lat)})
		}
	}
	e.details["lshaped_jobs"] = lsh
	var idx []int
	for i, pr := range runs {
		if !pr.job.deterministic() {
			idx = append(idx, i)
		}
	}
	parallel(len(idx), func(k int) {
		pr := runs[idx[k]]
		e.checkEquiv(pr.job.name(), pr.job.in, pr.out, int64(k))
	})
	for i := range runs {
		runs[i].out = nil
	}
}

// tracedTables measures untraced passes for half the window, then as
// many traced passes, and reports the per-layer metrics.
func (e *runEnv) tracedTables(ctx context.Context, jobs []*tjob) error {
	e.zeroLayers()
	_, wallU, nU := e.timedPasses(ctx, jobs, e.window()/2, false, nil)
	var traced []passRun
	var wallT time.Duration
	for nT := 0; nT < nU; nT++ {
		runs, w, _ := e.timedPasses(ctx, jobs, 0, true, nil)
		traced = append(traced, runs...)
		wallT += w
	}
	e.load.wall = wallU + wallT
	e.set("trace.overhead_frac", wallT.Seconds()/wallU.Seconds()-1)

	n := float64(nU)
	self := e.tr.selfTimes()
	var cs composedStats
	for _, pr := range traced {
		if c := pr.composed; c != nil {
			cs.visits += c.visits
			cs.bestKCalls += c.bestKCalls
			cs.truncated += c.truncated
			cs.rects += c.rects
			cs.accepted += c.accepted
			cs.divisionCubes += c.divisionCubes
		}
	}
	e.set("rect.bestk_ms", self["rect.bestk"].SelfMS/n)
	e.set("rect.visits", float64(cs.visits)/n)
	e.set("rect.truncated_frac", float64(cs.truncated)/float64(cs.bestKCalls))
	e.set("kcm.rebuild_ms", self["kcm.rebuild"].SelfMS/n)
	e.set("extract.apply_ms", self["extract.apply"].SelfMS/n)
	e.set("extract.division_cubes", float64(cs.divisionCubes)/n)
	e.set("extract.accept_ratio", float64(cs.accepted)/float64(cs.rects))

	var build kcm.BuildStats
	var driverWall time.Duration
	type agg struct {
		wall                        time.Duration
		vtime, work, seqV, barriers int64
	}
	per := map[string]*agg{}
	for _, pr := range traced {
		a := per[pr.job.algo]
		if a == nil {
			a = &agg{}
			per[pr.job.algo] = a
		}
		a.wall += pr.lat
		a.vtime += pr.res.VirtualTime
		a.work += pr.res.TotalWork
		a.seqV += pr.job.seqV
		a.barriers += pr.res.Barriers
		build.Add(pr.res.Build)
		driverWall += pr.lat
	}
	for d, a := range per {
		e.set("core."+d+".wall_ms", ms(a.wall)/n)
		e.set("core."+d+".vtime", float64(a.vtime)/n)
		e.set("core."+d+".total_work", float64(a.work)/n)
		e.set("core."+d+".barriers", float64(a.barriers)/n)
		e.set("core."+d+".work_ratio", float64(a.work)/float64(a.seqV))
	}
	e.set("kcm.nodes_reused_ratio", float64(build.NodesReused)/float64(build.NodesReused+build.NodesKerneled))
	e.set("kcm.build_share", float64(build.BuildNS)/float64(driverWall))

	e.ladder(ctx, jobs)
	return nil
}

// ladder times single layer calls on the workload's circuits, outside
// any driver: kernel generation, one-shot matrix build, k-way
// partitioning, L-shaped matrix assembly, and one KernelExtract call.
func (e *runEnv) ladder(ctx context.Context, jobs []*tjob) {
	seen := map[string]bool{}
	var circuits []*network.Network
	for _, j := range jobs {
		if !seen[j.circuit] {
			seen[j.circuit] = true
			circuits = append(circuits, j.in)
		}
	}
	opt := tablesOpt()
	var kAll, kBuild, kway, lbuild, ldist time.Duration
	pairs, cut := 0, 0
	for _, in := range circuits {
		nw := in.CloneDetached()
		job := "ladder/" + nw.Name
		kAll += e.timed("kernels.all", job, func() {
			for _, v := range nw.NodeVars() {
				pairs += len(kernels.All(nw.Node(v).Fn, opt.Kernel))
			}
		})
		kBuild += e.timed("kcm.build", job, func() { kcm.Build(ctx, nw, nw.NodeVars(), opt.Kernel) })
		var p [][]sop.Var
		kway += e.timed("partition.kway", job, func() { p = partition.KWay(nw, nil, 6, opt.Partition) })
		cut += partition.KWayCut(nw, p)
		var mats []*kcm.Matrix
		lbuild += e.timed("lshape.build_matrices", job, func() { mats = lshape.BuildMatrices(nw, p, opt.Kernel) })
		ldist += e.timed("lshape.distribute_assemble", job, func() {
			lshape.Assemble(mats, lshape.Distribute(mats))
		})
	}
	e.set("kernels.all_ms", ms(kAll))
	e.set("kernels.pairs", float64(pairs))
	e.set("kcm.build_ms", ms(kBuild))
	e.set("partition.kway_ms", ms(kway))
	e.set("partition.cut", float64(cut))
	e.set("lshape.build_ms", ms(lbuild))
	e.set("lshape.distribute_assemble_ms", ms(ldist))
	e.set("extract.kernel_extract_ms", e.kernelExtractMS(ctx))
}

// kernelExtractMS is the median of single extract.KernelExtract calls
// on misex3 with the options of the repository's KernelExtractCall
// micro-benchmark, each on a clone made before its timer starts.
func (e *runEnv) kernelExtractMS(ctx context.Context) float64 {
	in, err := gen.Benchmark("misex3")
	if err != nil {
		panic(err)
	}
	reps := 15
	if e.cfg.smoke {
		reps = 3
	}
	clones := make([]*network.Network, reps)
	for i := range clones {
		clones[i] = in.CloneDetached()
	}
	opt := extract.Options{Rect: rect.Config{MaxCols: 5, MaxVisits: 50000}, BatchK: 16}
	var times []float64
	for i, nw := range clones {
		times = append(times, ms(e.timed("extract.kernel_extract", fmt.Sprintf("ladder/misex3/%d", i), func() {
			extract.KernelExtract(ctx, nw, nil, opt)
		})))
	}
	return median(times)
}

// timed runs fn inside a span and returns its duration.
func (e *runEnv) timed(name, job string, fn func()) time.Duration {
	id := 0
	if e.tr != nil {
		id = e.tr.start(name, job, 0)
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if e.tr != nil {
		e.tr.stop(id)
	}
	return d
}
