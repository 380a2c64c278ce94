package main

import "math"

// perLayerUnits lists every per-layer metric with its unit. A traced
// run reports all of them; a layer the workload does not exercise
// reads 0 (NOTES.md says which workload moves which metric).
var perLayerUnits = map[string]string{
	"rect.bestk_ms":       "ms",
	"rect.visits":         "count",
	"rect.truncated_frac": "1",

	"kernels.all_ms": "ms",
	"kernels.pairs":  "count",

	"kcm.build_ms":           "ms",
	"kcm.rebuild_ms":         "ms",
	"kcm.nodes_reused_ratio": "1",
	"kcm.build_share":        "1",

	"extract.apply_ms":          "ms",
	"extract.division_cubes":    "count",
	"extract.accept_ratio":      "1",
	"extract.kernel_extract_ms": "ms",

	"partition.kway_ms": "ms",
	"partition.cut":     "count",

	"lshape.build_ms":               "ms",
	"lshape.distribute_assemble_ms": "ms",

	"equiv.check_ms": "ms",
	"blif.read_ms":   "ms",

	"service.admit_ms":        "ms",
	"service.queue_wait_ms":   "ms",
	"service.run_ms.miss":     "ms",
	"service.hit_ms":          "ms",
	"service.cache_hit_ratio": "1",
	"service.rejected":        "count",
	"service.retries":         "count",

	"durable.append_us.always":   "us",
	"durable.append_us.interval": "us",
	"durable.append_us.never":    "us",

	"cluster.forward_ms":          "ms",
	"cluster.forwarded_frac":      "1",
	"cluster.replicated_in":       "count",
	"cluster.replication_pending": "count",
	"cluster.heartbeat_failures":  "count",

	"trace.overhead_frac": "1",
}

// drivers are the four factorization drivers of package core.
var drivers = []string{"sequential", "replicated", "partitioned", "lshaped"}

func init() {
	for _, d := range drivers {
		perLayerUnits["core."+d+".wall_ms"] = "ms"
		perLayerUnits["core."+d+".vtime"] = "count"
		perLayerUnits["core."+d+".total_work"] = "count"
		perLayerUnits["core."+d+".barriers"] = "count"
		perLayerUnits["core."+d+".work_ratio"] = "1"
	}
}

// set records a per-layer metric under its listed unit; a ratio with
// nothing to divide reads 0.
func (e *runEnv) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("unlisted per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	e.perLayer[name] = metric{Value: v, Unit: unit}
}

// zeroLayers sets every per-layer metric to 0 before a traced run
// fills in the layers it exercises.
func (e *runEnv) zeroLayers() {
	for name := range perLayerUnits {
		e.set(name, 0)
	}
}
