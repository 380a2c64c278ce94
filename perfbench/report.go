package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists every end-to-end metric with its unit; each
// workload reports all of them (NOTES.md gives the per-workload
// meaning).
var endToEndUnits = map[string]string{
	"setup_s":               "s",
	"klits_per_s":           "klit/s",
	"lc_ratio":              "1",
	"vtime_speedup":         "x",
	"submit_to_done_ms.p50": "ms",
	"submit_to_done_ms.p95": "ms",
	"jobs_per_s":            "job/s",
	"peak_heap_mb":          "MiB",
}

// loadStats accumulates the measured window of one run.
type loadStats struct {
	mu sync.Mutex
	// attempted counts jobs started in the window, excluding
	// client-requested cancellations.
	attempted int
	// failed counts jobs that failed, were refused, or whose output
	// failed a check.
	failed int
	// jobs counts jobs completed with an output.
	jobs        int
	initialLits int64
	finalLits   int64
	latenciesMS []float64
	speedups    []float64
	wall        time.Duration
}

func (l *loadStats) completed(initialLC, finalLC int, latency time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	l.initialLits += int64(initialLC)
	l.finalLits += int64(finalLC)
	l.latenciesMS = append(l.latenciesMS, float64(latency)/float64(time.Millisecond))
}

func (l *loadStats) speedup(s float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.speedups = append(l.speedups, s)
}

// runEnv is the state of one invocation: its seed, set-up timings,
// measured window, output checks and (traced runs) spans.
type runEnv struct {
	cfg  config
	rng  *rand.Rand
	load loadStats

	// setups holds the duration of each set-up repetition; warmup is
	// the single warm-up pass that follows the last one.
	setups []time.Duration
	warmup time.Duration
	// heapPeak is the peak Go heap of the measured window.
	heapPeak uint64

	mu       sync.Mutex
	failures []string
	checks   int

	tr       *tracer
	perLayer map[string]metric
	details  map[string]any
	notes    []string

	workDir string
}

func newRunEnv(cfg config) *runEnv {
	e := &runEnv{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.seed)),
		perLayer: map[string]metric{},
		details:  map[string]any{},
	}
	if cfg.traced {
		e.tr = newTracer()
	}
	return e
}

// window is the measured duration.
func (e *runEnv) window() time.Duration { return time.Duration(e.cfg.seconds) * time.Second }

// tempDir makes a scratch directory under the output directory, so
// the benchmark writes nothing outside the repository checkout.
func (e *runEnv) tempDir(prefix string) (string, error) {
	if e.workDir == "" {
		base, err := filepath.Abs(filepath.Join(e.cfg.outDir, "work"))
		if err != nil {
			return "", err
		}
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp(base, fmt.Sprintf("run%d-", os.Getpid()))
		if err != nil {
			return "", err
		}
		e.workDir = dir
	}
	return os.MkdirTemp(e.workDir, prefix)
}

// cleanup removes the scratch directories.
func (e *runEnv) cleanup() {
	if e.workDir != "" {
		os.RemoveAll(e.workDir)
	}
}

// fail records a failed output check.
func (e *runEnv) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.mu.Lock()
	e.failures = append(e.failures, msg)
	e.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
}

// checked counts one passed or failed output check.
func (e *runEnv) checked() {
	e.mu.Lock()
	e.checks++
	e.mu.Unlock()
}

// note records a remark for the report and prints it.
func (e *runEnv) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.mu.Lock()
	e.notes = append(e.notes, msg)
	e.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
}

// result assembles the output line.
func (e *runEnv) result() result {
	l := &e.load
	failed := l.failed + len(e.failures)
	res := result{
		Correct:   failed == 0,
		Attempted: l.attempted,
		Failed:    failed,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		res.Failed++
		e.fail("no job was attempted in the measured window")
	}
	if e.cfg.traced {
		res.Metrics = e.perLayer
		return res
	}
	setups := make([]float64, len(e.setups))
	for i, d := range e.setups {
		setups[i] = d.Seconds()
	}
	p95 := percentile(l.latenciesMS, 95)
	beyond := 0
	for _, v := range l.latenciesMS {
		if v > p95 {
			beyond++
		}
	}
	e.note("%d latency samples, %d beyond p95; %d output checks; failed_frac %.4f",
		len(l.latenciesMS), beyond, e.checks, float64(res.Failed)/float64(res.Attempted))
	e.note("set-up repetitions %v, warm-up %v", e.setups, e.warmup)
	secs := l.wall.Seconds()
	res.Metrics = map[string]metric{
		"setup_s":               {median(setups) + e.warmup.Seconds(), ""},
		"klits_per_s":           {float64(l.initialLits) / 1000 / secs, ""},
		"lc_ratio":              {float64(l.finalLits) / float64(l.initialLits), ""},
		"vtime_speedup":         {geomean(l.speedups), ""},
		"submit_to_done_ms.p50": {percentile(l.latenciesMS, 50), ""},
		"submit_to_done_ms.p95": {p95, ""},
		"jobs_per_s":            {float64(l.jobs) / secs, ""},
		"peak_heap_mb":          {float64(e.heapPeak) / (1 << 20), ""},
	}
	for k, m := range res.Metrics {
		m.Unit = endToEndUnits[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		res.Metrics[k] = m
	}
	return res
}

// ---------------------------------------------------------- statistics

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ------------------------------------------------------------ heap peak

// heapSampler records the peak of the Go heap (live and not yet swept
// objects) while it is active. It starts paused; each resume forces a
// GC first, so every measured stretch starts from the live heap alone.
type heapSampler struct {
	active atomic.Bool
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if h.active.Load() {
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) resume() {
	runtime.GC()
	h.active.Store(true)
}

func (h *heapSampler) pause() { h.active.Store(false) }

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// ----------------------------------------------------------- provenance

// provenance identifies the machine, toolchain and source a result
// was measured on.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Traced       bool   `json:"traced"`
	Smoke        bool   `json:"smoke"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Time         string `json:"time"`
}

func collectProvenance(cfg config) (provenance, error) {
	digest, err := sourceDigest()
	if err != nil {
		return provenance{}, fmt.Errorf("hashing the program source (run from the repository root): %w", err)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Traced:       cfg.traced,
		Smoke:        cfg.smoke,
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceSHA256: digest,
		Time:         time.Now().UTC().Format(time.RFC3339),
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every Go file of the measured
// program, so a result can be tied to its source even where no commit
// id is available.
func sourceDigest() (string, error) {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && (path == "go.mod" || strings.HasSuffix(path, ".go")) {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	sort.Strings(files)
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeReport stores provenance, the result, workload details and
// (traced runs) the spans under the output directory.
func (e *runEnv) writeReport(prov provenance, res result) error {
	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(e.cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", e.cfg.workload, e.cfg.seed, boolInt(e.cfg.traced)))
	report := map[string]any{
		"provenance": prov,
		"result":     res,
		"details":    e.details,
		"notes":      e.notes,
		"failures":   e.failures,
	}
	if e.tr != nil {
		report["self_time_ms"] = e.tr.selfTimes()
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if e.tr != nil {
		return e.tr.writeSpans(base + ".spans.jsonl")
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
