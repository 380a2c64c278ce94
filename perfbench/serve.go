package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blif"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/equiv"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/service"
)

// A service workload is a closed loop of nproc clients. Each client
// submits the next job of a seeded sequence with POST /v1/jobs, then
// polls GET /v1/jobs/{id} until the job is terminal, the way
// `factorctl submit -wait` does, but not at factorctl's 200 ms
// interval, which would round every latency up to a multiple of
// 200 ms. pollDelay keeps the rounding near 1 ms at the median and
// under 10% in the tail.
func pollDelay(elapsed time.Duration) time.Duration {
	switch {
	case elapsed < 20*time.Millisecond:
		return time.Millisecond
	case elapsed < 100*time.Millisecond:
		return 2 * time.Millisecond
	case elapsed < 200*time.Millisecond:
		return elapsed / 10
	default:
		return 20 * time.Millisecond
	}
}

// The job sequence is built from blocks of blockLen jobs, shuffled
// within each block, so every stretch of a run has the same mix:
// resubmissions of warm-up jobs (cache hits), small misses on misex3-
// and dalu-class circuits, two small misses cancelled right after the
// 202 and, where the mix has them, one verified small miss per block
// and a spla-class L-shaped miss every other block.
const (
	blockLen    = 40
	cancelPer   = 2
	hitPoolSize = 16
)

// mix is what differs between the two service workloads.
type mix struct {
	// hits is the number of cache hits per block. service-mix
	// resubmits 30%, which puts its median job in the middle of the
	// L-shaped misses on misex3-class circuits, the densest stretch
	// of its latencies; at 40% the median sat on the boundary between
	// these and the sequential misses, and at 50% on the one between
	// hits and misses, and jumped from run to run. cluster-3node
	// resubmits 10%: node 0 answers hits and a third of the misses
	// itself, and with fewer hits its median job is one that crosses
	// the forwarding hop, the mechanism that workload exists for.
	hits int
	// slow adds the verified and the spla-class misses. cluster-3node
	// leaves them out: with one worker per node each would stall the
	// forwarded jobs queued behind it for most of a second, and the
	// handful of such stalls in a run would decide its p95.
	slow bool
	// perSecond sizes the pre-generated sequence (see blocksFor).
	perSecond int
}

// scircuit is one generated input: the BLIF text submitted for it and
// its literal count.
type scircuit struct {
	name string
	text string
	lc   int
}

// sjob is one submission.
type sjob struct {
	kind string // hit, miss, big, verify or cancel
	circ *scircuit
	spec service.Spec
	// ref is the warm-up job a hit resubmits.
	ref *warmJob
}

func (j *sjob) label() string {
	return fmt.Sprintf("%s:%s/%s/p%d", j.kind, j.circ.name, j.spec.Algo, j.spec.P)
}

// warmJob is a hit-pool entry after warm-up: its checked output and the
// sequential driver's modeled time on the same circuit and options.
type warmJob struct {
	job  *sjob
	text string
	seqV int64
}

// sres is what a client observed for one job.
type sres struct {
	job     *sjob
	id      string
	refused bool
	err     error
	admit   time.Duration
	lat     time.Duration
	status  service.Status
	// remote is the peer a poll saw running the job (forwarded jobs).
	remote string
}

// snode is one in-process factord: service.Server, optionally a
// cluster.Node, served on a loopback listener.
type snode struct {
	srv    *service.Server
	node   *cluster.Node
	ts     *httptest.Server
	cancel context.CancelFunc
}

func (n *snode) url() string { return n.ts.URL }

func (n *snode) stop() {
	if n.node != nil {
		n.node.Stop()
	}
	n.ts.Close()
	n.srv.Shutdown()
	n.cancel()
}

// sworkload is a started service workload.
type sworkload struct {
	nodes  []*snode
	client *http.Client
	seq    []*sjob
	warm   []*warmJob
}

func (w *sworkload) stop() {
	for _, n := range w.nodes {
		n.stop()
	}
	w.client.CloseIdleConnections()
}

// smallSpecs are the driver settings of small jobs. Misses take them
// in turn, so every run has the same mix whatever the seed. The
// partitioned settings join only when the run asks for that driver
// (NOTES.md, "Known defect").
func (e *runEnv) smallSpecs() []service.Spec {
	specs := []service.Spec{
		{Algo: "seq"},
		{Algo: "lshape", P: 2}, {Algo: "lshape", P: 4}, {Algo: "lshape", P: 6},
	}
	if e.cfg.partitioned {
		specs = append(specs, service.Spec{Algo: "part", P: 2}, service.Spec{Algo: "part", P: 4}, service.Spec{Algo: "part", P: 6})
	}
	for i := range specs {
		specs[i] = specs[i].WithDefaults()
	}
	return specs
}

// specFor is the setting of the k-th small circuit. Small circuits
// alternate misex3- and dalu-class (genCircuits), so each setting
// takes two in a row and runs on both classes whatever the number of
// settings.
func specFor(specs []service.Spec, k int) service.Spec { return specs[(k/2)%len(specs)] }

// bigSpec is the driver setting of spla-class misses: L-shaped p=6,
// or partitioned p=6 when the run asks for that driver.
func (e *runEnv) bigSpec() service.Spec {
	if e.cfg.partitioned {
		return service.Spec{Algo: "part", P: 6}.WithDefaults()
	}
	return service.Spec{Algo: "lshape", P: 6}.WithDefaults()
}

// genCircuits generates the inputs of a service workload from the
// seed: small circuits alternating misex3- and dalu-class variants,
// and bigs spla-class variants. Each prefix draws from its own range
// of variant numbers, so no two generated circuits coincide.
func genCircuits(seed int64, prefix string, small, bigs int) []*scircuit {
	var out []*scircuit
	offset := map[string]int{"m": 0, "b": 0, "h": 1_000_000, "v": 2_000_000}[prefix]
	mk := func(base string, k int) *scircuit {
		nw := variant(base, seed, offset+k)
		nw.Name = fmt.Sprintf("%s-%s%d", base, prefix, k)
		return &scircuit{name: nw.Name, text: blifText(nw), lc: nw.Literals()}
	}
	for i := 0; i < small; i++ {
		base := "misex3"
		if i%2 == 1 {
			base = "dalu"
		}
		out = append(out, mk(base, i))
	}
	for i := 0; i < bigs; i++ {
		out = append(out, mk("spla", i))
	}
	return out
}

// buildSequence lays out blocks blocks of jobs from the seed.
func (e *runEnv) buildSequence(rng *rand.Rand, m mix, blocks int, warm []*warmJob) []*sjob {
	seed, specs := e.cfg.seed, e.smallSpecs()
	smallPer := blockLen - m.hits
	small := genCircuits(seed, "m", blocks*smallPer, 0)
	big := genCircuits(seed, "b", 0, blocks/2+1)
	// Verified jobs use misex3-class circuits only (the even ones):
	// verifying a dalu-class one costs 2.4 times as much and would make
	// the tail depend on which class the seed picked.
	verify := genCircuits(seed, "v", 2*blocks, 0)
	var seq []*sjob
	for b := 0; b < blocks; b++ {
		var block []*sjob
		for i := 0; i < m.hits; i++ {
			ref := warm[rng.Intn(len(warm))]
			block = append(block, &sjob{kind: "hit", circ: ref.job.circ, spec: ref.job.spec, ref: ref})
		}
		for i := 0; i < smallPer; i++ {
			k := b*smallPer + i
			j := &sjob{kind: "miss", circ: small[k], spec: specFor(specs, k)}
			switch {
			case i < cancelPer:
				j.kind = "cancel"
			case i == cancelPer && m.slow:
				j.kind = "verify"
				j.circ = verify[2*b]
				j.spec.Verify = true
			case i == smallPer-1 && m.slow && b%2 == 0:
				j = &sjob{kind: "big", circ: big[b/2], spec: e.bigSpec()}
			}
			block = append(block, j)
		}
		rng.Shuffle(len(block), func(i, k int) { block[i], block[k] = block[k], block[i] })
		seq = append(seq, block...)
	}
	return seq
}

// blocksFor sizes the pre-generated sequence: enough for the window at
// the highest rate seen on a 2-CPU host with a wide margin. A run that
// exhausts it ends its window early and says so.
func blocksFor(e *runEnv, perSecond int) int {
	if e.cfg.smoke {
		return 1
	}
	n := e.cfg.seconds * perSecond / blockLen
	if n < 2 {
		n = 2
	}
	return n
}

// startNode builds one in-process factord on a loopback listener.
func startNode(cfg service.Config, clusterCfg *cluster.Config) (*snode, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := service.NewServer(ctx, cfg)
	if _, err := srv.OpenDurable(); err != nil {
		cancel()
		l.Close()
		return nil, err
	}
	n := &snode{srv: srv, cancel: cancel}
	handler := srv.Handler()
	if clusterCfg != nil {
		cc := *clusterCfg
		cc.Addr = l.Addr().String()
		n.node = cluster.New(ctx, cc, srv)
		handler = n.node.Handler(srv.Handler())
	}
	n.ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: handler}}
	n.ts.Start()
	srv.Start()
	if n.node != nil {
		n.node.Start()
	}
	return n, nil
}

// nproc is the client count and the pool size of the single-node
// service.
func nproc() int { return runtime.NumCPU() }

func runServiceMix(e *runEnv) error {
	return e.runService(func() ([]*snode, error) {
		dir, err := e.tempDir("factord-")
		if err != nil {
			return nil, err
		}
		cfg := service.DefaultConfig()
		cfg.Workers = nproc()
		cfg.DataDir = dir // fsync policy: factord's default, always
		n, err := startNode(cfg, nil)
		if err != nil {
			return nil, err
		}
		return []*snode{n}, nil
	}, mix{hits: 12, slow: true, perSecond: 60})
}

func runCluster3(e *runEnv) error {
	return e.runService(func() ([]*snode, error) {
		var nodes []*snode
		var seeds []string
		for i := 0; i < 3; i++ {
			cfg := service.DefaultConfig()
			cfg.Workers = 1
			// Every node caches every replicated result. With the
			// default 256 entries a run would evict hit-pool entries,
			// and an evicted L-shaped job computed again may return
			// another network, which later hits then return too.
			cfg.CacheCap = 4096
			n, err := startNode(cfg, &cluster.Config{NodeID: fmt.Sprintf("n%d", i), Seeds: seeds})
			if err != nil {
				for _, m := range nodes {
					m.stop()
				}
				return nil, err
			}
			nodes = append(nodes, n)
			if seeds == nil {
				seeds = []string{strings.TrimPrefix(n.url(), "http://")}
			}
		}
		if err := awaitRing(nodes, 30*time.Second); err != nil {
			for _, m := range nodes {
				m.stop()
			}
			return nil, err
		}
		return nodes, nil
	}, mix{hits: 4, perSecond: 40})
}

// awaitRing waits until every node routes over all of them.
func awaitRing(nodes []*snode, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		formed := true
		for _, n := range nodes {
			st, ok := n.srv.Stats().Cluster.(cluster.Stats)
			if !ok || len(st.Ring) != len(nodes) {
				formed = false
			}
		}
		if formed {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster did not form")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runService repeats the set-up (circuits, servers, warm-up) setupReps
// times, then measures the closed loop and checks every result.
func (e *runEnv) runService(start func() ([]*snode, error), m mix) error {
	var w *sworkload
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.stop()
		}
		rng := rand.New(rand.NewSource(e.cfg.seed))
		t0 := time.Now()
		var err error
		w, err = e.setupService(rng, start, m)
		if err != nil {
			return err
		}
		e.setups = append(e.setups, time.Since(t0))
	}
	defer w.stop()
	t0 := time.Now()
	e.checkWarm(w)
	e.note("warm-up checks took %.2fs", time.Since(t0).Seconds())

	if e.cfg.traced {
		return e.tracedService(w)
	}
	heap := startHeapSampler()
	heap.resume()
	res, wall := e.closedLoop(w, 0, len(w.seq), e.window(), false)
	e.heapPeak = heap.Stop()
	e.load.wall = wall
	e.note("%d jobs in %.2fs (sequence of %d)", len(res), wall.Seconds(), len(w.seq))
	t0 = time.Now()
	e.checkService(w, res)
	e.note("result checks took %.2fs", time.Since(t0).Seconds())
	return nil
}

// setupService generates the circuits, starts the servers and submits
// the hit pool once, so later resubmissions are cache hits.
func (e *runEnv) setupService(rng *rand.Rand, start func() ([]*snode, error), m mix) (*sworkload, error) {
	pool := genCircuits(e.cfg.seed, "h", hitPoolSize, 0)
	specs := e.smallSpecs()
	var warm []*warmJob
	for i, c := range pool {
		warm = append(warm, &warmJob{job: &sjob{kind: "warm", circ: c, spec: specFor(specs, i)}})
	}
	seq := e.buildSequence(rng, m, blocksFor(e, m.perSecond), warm)
	nodes, err := start()
	if err != nil {
		return nil, err
	}
	w := &sworkload{nodes: nodes, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}, seq: seq, warm: warm}
	errs := make([]error, len(warm))
	parallel(len(warm), func(i int) {
		wj := warm[i]
		r := e.do(w, wj.job, nil)
		if r.err != nil || r.status.State != service.StateDone {
			errs[i] = fmt.Errorf("warm-up job %s: state %s: %v", wj.job.label(), r.status.State, r.err)
			return
		}
		wj.text, errs[i] = w.result(r.id)
	})
	if err := errors.Join(errs...); err != nil {
		w.stop()
		return nil, err
	}
	return w, nil
}

// checkWarm checks the warm-up outputs against their inputs and fixes
// the sequential baselines of the hit pool.
func (e *runEnv) checkWarm(w *sworkload) {
	parallel(len(w.warm), func(i int) {
		wj := w.warm[i]
		ref := e.reference(wj.job)
		wj.seqV = ref.seqV
		e.checkOutput("warm-up "+wj.job.label(), ref, wj.text)
	})
}

// closedLoop runs the clients over seq[from:to] until d has elapsed
// and every started job has finished.
func (e *runEnv) closedLoop(w *sworkload, from, to int, d time.Duration, traced bool) ([]*sres, time.Duration) {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var out []*sres
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				var tr *tracer
				if traced {
					tr = e.tr
				}
				r := e.do(w, w.seq[i], tr)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if int(next.Load()) >= to && !e.cfg.smoke {
		e.note("job sequence exhausted after %.2fs; the window ended early", wall.Seconds())
	}
	return out, wall
}

// do submits one job to node 0 and waits for a terminal state.
func (e *runEnv) do(w *sworkload, j *sjob, tr *tracer) *sres {
	r := &sres{job: j}
	body, err := json.Marshal(service.SubmitRequest{Name: j.circ.name, Circuit: j.circ.text, Spec: j.spec})
	if err != nil {
		r.err = err
		return r
	}
	root := 0
	if tr != nil {
		root = tr.start("service.submit_to_done", j.label(), 0)
	}
	t0 := time.Now()
	id := 0
	if tr != nil {
		id = tr.start("service.admit", j.label(), root)
	}
	resp, err := w.client.Post(w.nodes[0].url()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.err = err
		return r
	}
	if tr != nil {
		tr.stop(id)
	}
	r.admit = time.Since(t0)
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.refused = true
		return r
	default:
		r.err = fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		return r
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		r.err = err
		return r
	}
	r.id = sub.ID
	if j.kind == "cancel" {
		// A DELETE that fails or comes too late leaves the job to
		// finish; its result is then checked like any other.
		req, _ := http.NewRequest(http.MethodDelete, w.nodes[0].url()+"/v1/jobs/"+sub.ID, nil)
		if resp, err := w.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if tr != nil {
		id = tr.start("service.wait", j.label(), root)
	}
	for {
		st, err := w.status(sub.ID)
		if err != nil {
			r.err = err
			return r
		}
		if st.RemoteNode != "" {
			r.remote = st.RemoteNode
		}
		if st.State.Terminal() {
			r.status = st
			break
		}
		time.Sleep(pollDelay(time.Since(t0)))
	}
	r.lat = time.Since(t0)
	if tr != nil {
		tr.stop(id)
		tr.stop(root)
		st := r.status
		if st.StartedAt != nil {
			tr.record("service.queue_wait", j.label(), id, st.SubmittedAt, *st.StartedAt)
			if st.FinishedAt != nil {
				tr.record("service.run", j.label(), id, *st.StartedAt, *st.FinishedAt)
			}
		}
	}
	return r
}

func (w *sworkload) status(id string) (service.Status, error) {
	var st service.Status
	resp, err := w.client.Get(w.nodes[0].url() + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status of %s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (w *sworkload) result(id string) (string, error) {
	resp, err := w.client.Get(w.nodes[0].url() + "/v1/jobs/" + id + "/result")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("result of %s: %s", id, resp.Status)
	}
	return string(data), nil
}

// sref is the library's answer for one submission.
type sref struct {
	in *network.Network
	// out is the library's output for a deterministic driver; nil for
	// L-shaped jobs.
	out  *network.Network
	seqV int64 // V(sequential) on the same circuit and options
}

// reference parses the submitted text the way the service does and
// runs the same driver through the library.
func (e *runEnv) reference(j *sjob) sref {
	in, err := blif.Read(strings.NewReader(j.circ.text))
	if err != nil {
		panic(fmt.Sprintf("re-reading generated circuit %s: %v", j.circ.name, err))
	}
	ctx := context.Background()
	opt := j.spec.CoreOptions()
	ref := sref{in: in}
	if j.kind != "big" {
		nw := in.CloneDetached()
		ref.seqV = core.Sequential(ctx, nw, opt).VirtualTime
		if j.spec.Algo == "seq" {
			ref.out = nw
		}
	}
	if j.spec.Algo == "part" {
		ref.out = in.CloneDetached()
		core.Partitioned(ctx, ref.out, j.spec.P, opt)
	}
	return ref
}

// checkOutput checks one fetched result the way the tables workloads
// check theirs: a deterministic driver's result must equal the
// library's output, and that output must be equivalent to the input;
// an L-shaped result is checked against the input by simulation.
func (e *runEnv) checkOutput(what string, ref sref, text string) {
	if ref.out != nil {
		e.checkEquiv(what+" (library output)", ref.in, ref.out, int64(len(text)))
		e.checkSame(what, blifText(ref.out), text)
		return
	}
	out, err := blif.Read(strings.NewReader(text))
	if err != nil {
		e.checked()
		e.fail("%s: unreadable result: %v", what, err)
		return
	}
	e.checkEquiv(what, ref.in, out, int64(len(text)))
}

// checkService accounts the window, then fetches and checks every
// result.
func (e *runEnv) checkService(w *sworkload, res []*sres) {
	l := &e.load
	var done []*sres
	for _, r := range res {
		cancelled := r.job.kind == "cancel"
		failed := r.refused || r.err != nil ||
			(r.status.State != service.StateDone && !(cancelled && r.status.State == service.StateCancelled))
		// A cancelled submission counts only when it failed.
		if !cancelled || failed {
			l.attempted++
		}
		switch {
		case failed:
			l.failed++
			e.note("%s: refused=%v err=%v state=%s %s", r.job.label(), r.refused, r.err, r.status.State, r.status.Error)
		case r.status.State == service.StateDone:
			done = append(done, r)
			if !cancelled {
				l.completed(r.job.circ.lc, r.status.LC, r.lat)
			}
		}
	}
	var perJob []map[string]any
	for _, r := range res {
		perJob = append(perJob, map[string]any{"job": r.job.label(), "state": r.status.State,
			"lat_ms": ms(r.lat), "cache_hit": r.status.CacheHit, "remote": r.remote})
	}
	e.details["jobs"] = perJob
	seqV := make([]int64, len(done))
	parallel(len(done), func(i int) {
		r := done[i]
		text, err := w.result(r.id)
		if err != nil {
			e.checked()
			e.fail("%s: fetching result: %v", r.job.label(), err)
			return
		}
		// A resubmission is checked against its warm-up result exactly,
		// unless its cache entry was evicted (the LRU cache holds
		// CacheCap entries, and on cluster-3node every node caches
		// every replicated result) and an L-shaped run computed it
		// again: that run may return another network, which is then
		// checked like any L-shaped miss.
		if ref := r.job.ref; ref != nil && (r.status.CacheHit || r.job.spec.Algo != "lshape") {
			e.checkSame(r.job.label(), ref.text, text)
			seqV[i] = ref.seqV
			return
		}
		ref := e.reference(r.job)
		seqV[i] = ref.seqV
		e.checkOutput(r.job.label(), ref, text)
	})
	for i, r := range done {
		if r.job.kind != "cancel" && r.job.spec.Algo != "seq" && seqV[i] > 0 && r.status.VirtualTime > 0 {
			l.speedup(float64(seqV[i]) / float64(r.status.VirtualTime))
		}
	}
}

// tracedService measures an untraced half window, then a traced one
// over the next jobs of the sequence, and reports the per-layer
// metrics of the traced half.
func (e *runEnv) tracedService(w *sworkload) error {
	e.zeroLayers()
	half := e.window() / 2
	plain, wallU := e.closedLoop(w, 0, len(w.seq)/2, half, false)
	before := e.nodeStats(w)
	traced, wallT := e.closedLoop(w, len(w.seq)/2, len(w.seq), half, true)
	after := e.nodeStats(w)
	e.load.wall = wallU + wallT
	e.checkService(w, append(plain, traced...))
	rateU := float64(len(plain)) / wallU.Seconds()
	rateT := float64(len(traced)) / wallT.Seconds()
	e.set("trace.overhead_frac", rateU/rateT-1)

	var admit, queue, runMiss, hit, fwd []float64
	hits, done, forwarded, rejected := 0, 0, 0, 0
	for _, r := range traced {
		if r.refused {
			rejected++
		}
		if r.id == "" {
			continue
		}
		admit = append(admit, ms(r.admit))
		st := r.status
		if st.State != service.StateDone {
			continue
		}
		done++
		if st.StartedAt != nil {
			queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
		}
		if st.CacheHit {
			hits++
			hit = append(hit, ms(r.lat))
		} else if st.StartedAt != nil && st.FinishedAt != nil {
			runMiss = append(runMiss, ms(st.FinishedAt.Sub(*st.StartedAt)))
		}
		if r.remote != "" {
			forwarded++
			fwd = append(fwd, ms(r.lat))
		}
	}
	e.set("service.admit_ms", median(admit))
	e.set("service.queue_wait_ms", median(queue))
	e.set("service.run_ms.miss", median(runMiss))
	e.set("service.hit_ms", median(hit))
	e.set("service.cache_hit_ratio", float64(hits)/float64(done))
	e.set("service.rejected", float64(rejected))
	e.set("service.retries", float64(after.retries-before.retries))
	if len(w.nodes) > 1 {
		e.set("cluster.forward_ms", median(fwd))
		e.set("cluster.forwarded_frac", float64(forwarded)/float64(done))
		e.set("cluster.replicated_in", float64(after.replicatedIn-before.replicatedIn))
		e.set("cluster.replication_pending", float64(after.pending))
		e.set("cluster.heartbeat_failures", float64(after.hbFailures-before.hbFailures))
	} else {
		e.durableLadder(w)
	}
	e.serviceLadder(w)
	return nil
}

type nodeTotals struct {
	retries, replicatedIn, hbFailures int64
	pending                           int
}

func (e *runEnv) nodeStats(w *sworkload) nodeTotals {
	var t nodeTotals
	for _, n := range w.nodes {
		st := n.srv.Stats()
		t.retries += st.Pool.Faults.JobRetries
		if cs, ok := st.Cluster.(cluster.Stats); ok {
			t.replicatedIn += cs.ReplicatedIn
			t.hbFailures += cs.HeartbeatFailures
			t.pending += cs.ReplicationPending
		}
	}
	return t
}

// serviceLadder times the parse and verify calls a submission costs
// inside the service: blif.Read of submitted texts, and equiv.Check
// with the service's own options on a verified-class circuit.
func (e *runEnv) serviceLadder(w *sworkload) {
	var reads []float64
	for i, j := range w.seq {
		if i >= 40 {
			break
		}
		reads = append(reads, ms(e.timed("blif.read", j.label(), func() {
			if _, err := blif.Read(strings.NewReader(j.circ.text)); err != nil {
				e.fail("re-reading %s: %v", j.circ.name, err)
			}
		})))
	}
	e.set("blif.read_ms", median(reads))

	spec, _ := gen.SpecOf("misex3")
	in := gen.Generate(spec)
	out := in.CloneDetached()
	core.Sequential(context.Background(), out, service.Spec{}.WithDefaults().CoreOptions())
	var checks []float64
	for i := 0; i < 3; i++ {
		checks = append(checks, ms(e.timed("equiv.check", "ladder/misex3", func() {
			e.checked()
			if err := equiv.Check(in, out, equiv.Options{}); err != nil {
				e.fail("ladder equiv.Check: %v", err)
			}
		})))
	}
	e.set("equiv.check_ms", median(checks))
}

// durableLadder times Store.Append of admission-sized records under
// each fsync policy, in a scratch directory.
func (e *runEnv) durableLadder(w *sworkload) {
	rec, _ := json.Marshal(map[string]any{"id": "j-000001", "spec": w.seq[0].spec, "circuit": w.seq[0].circ.text})
	n := 200
	if e.cfg.smoke {
		n = 20
	}
	for _, pol := range []struct{ metric, policy string }{
		{"durable.append_us.always", "always"},
		{"durable.append_us.interval", "100ms"},
		{"durable.append_us.never", "never"},
	} {
		p, err := durable.ParsePolicy(pol.policy)
		if err != nil {
			e.fail("policy %s: %v", pol.policy, err)
			continue
		}
		dir, err := e.tempDir("journal-")
		if err != nil {
			e.fail("journal dir: %v", err)
			continue
		}
		st, _, err := durable.Open(dir, p)
		if err != nil {
			e.fail("opening journal: %v", err)
			continue
		}
		var us []float64
		for i := 0; i < n; i++ {
			d := e.timed("durable.append", "ladder/"+pol.policy, func() {
				if err := st.Append(rec); err != nil {
					e.fail("journal append: %v", err)
				}
			})
			us = append(us, float64(d)/float64(time.Microsecond))
		}
		if err := st.Close(); err != nil {
			e.fail("closing journal: %v", err)
		}
		e.set(pol.metric, median(us))
	}
}
