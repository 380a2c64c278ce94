package main

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/kcm"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/vtime"
)

// composedStats are the counters of one traced sequential job.
type composedStats struct {
	visits        int
	bestKCalls    int
	truncated     int
	rects         int
	accepted      int
	divisionCubes int
	build         kcm.BuildStats
	lc            int
	vtime         int64
}

// composedSequential factors nw exactly as core.Sequential does, but
// rebuilt from the public calls of each layer so that every call can
// carry a span: it loops the way extract.Repeat loops over
// extract.KernelExtract (Patcher.Rebuild, then rect.BestK,
// extract.KernelOf, extract.ApplyRect and Patcher.MarkDirty until no
// rectangle is left, and again until a call extracts nothing). The
// caller checks that the result equals core.Sequential's, which shows
// that the per-layer split describes the real loop.
func composedSequential(ctx context.Context, nw *network.Network, opt core.Options, tr *tracer, job string, parent int) composedStats {
	var st composedStats
	pat := kcm.NewPatcher(0, opt.Kernel)
	workers := opt.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := opt.BatchK
	if k < 1 {
		k = 1
	}
	active := nw.NodeVars()
	for {
		before := nw.NumNodes()
		call := tr.start("extract.call", job, parent)
		id := tr.start("kcm.rebuild", job, call)
		m := pat.Rebuild(ctx, nw, active, workers)
		tr.stop(id)
		covered := rect.NewCover(m)
		cfg := opt.Rect
		cfg.Cover = covered
		extracted := 0
		for {
			id = tr.start("rect.bestk", job, call)
			batch, stats := rect.BestK(m, cfg, nil, k)
			tr.stop(id)
			st.visits += stats.Visits
			st.bestKCalls++
			if stats.Truncated {
				st.truncated++
			}
			if len(batch) == 0 {
				break
			}
			for _, best := range batch {
				id = tr.start("extract.kernel_of", job, call)
				kernel := extract.KernelOf(m, best)
				tr.stop(id)
				id = tr.start("extract.apply", job, call)
				_, dirty, touched, changed := extract.ApplyRect(nw, m, best, kernel, covered)
				tr.stop(id)
				id = tr.start("kcm.mark_dirty", job, call)
				for _, dv := range dirty {
					pat.MarkDirty(dv)
				}
				tr.stop(id)
				st.rects++
				st.divisionCubes += touched
				if changed {
					st.accepted++
					extracted++
				}
			}
		}
		tr.stop(call)
		if extracted == 0 {
			break
		}
		vars := nw.NodeVars()
		active = append(active, vars[before:]...)
	}
	st.build = pat.Stats()
	st.lc = nw.Literals()
	// Charge the work the way core.Sequential does, so the modeled
	// time can be compared with the driver's.
	model := opt.Model
	if model == (vtime.Model{}) {
		model = vtime.DefaultModel()
	}
	mc := vtime.NewMachine(1, model)
	mc.ChargeKernelPairs(0, int(st.build.PairsKerneled))
	mc.ChargeMatrixEntries(0, int(st.build.EntriesBuilt))
	mc.ChargeSearchVisits(0, st.visits)
	mc.ChargeDivisionCubes(0, st.divisionCubes)
	st.vtime = mc.Elapsed()
	return st
}
