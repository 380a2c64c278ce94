package kcm

// This file implements the package's one matrix-build path (DESIGN.md
// §12). Kernel generation is split from labeling: per node the
// Patcher caches a label-free "proto" — (co-kernel, kernel cube,
// function cube) triples in kernels.All order, with all cube storage
// owned by a per-node arena — and a deterministic sequential assemble
// pass assigns row/column/cube labels in node order, kernel-pair
// order and kernel-cube order, as a node-at-a-time build would.
// Because labels never live in the cache:
//
//   - parallel kerneling (any worker count, any interleaving) yields a
//     matrix bit-identical to a one-worker build, and
//   - re-kerneling only the nodes a division dirtied yields a matrix
//     bit-identical to a from-scratch rebuild.
//
// Invalidation protocol: MarkDirty/Drop only queue invalidation; a
// dirty node's arena chunks are recycled at the *next* Rebuild, so the
// outgoing matrix stays fully valid until its replacement exists.
// Callers must stop using a Rebuild result once they call Rebuild
// again on the same Patcher.

import (
	"context"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// BuildStats counts incremental matrix-build work; the service surfaces
// these per pool in /v1/stats.
type BuildStats struct {
	// BuildNS is wall time spent inside Rebuild (kerneling + assembly).
	BuildNS int64 `json:"build_ns"`
	// NodesKerneled counts nodes whose kernels were (re)generated.
	NodesKerneled int64 `json:"nodes_kerneled"`
	// PairsKerneled counts (kernel, co-kernel) pairs generated, i.e.
	// matrix rows actually rebuilt rather than reused from cache.
	PairsKerneled int64 `json:"pairs_kerneled"`
	// EntriesBuilt counts matrix entries generated for rebuilt rows.
	EntriesBuilt int64 `json:"entries_built"`
	// NodesReused counts per-node rebuilds avoided: nodes whose cached
	// proto was reused by an assemble instead of being re-kerneled.
	NodesReused int64 `json:"nodes_reused"`
	// ArenaBytesReused is the total cube storage served from recycled
	// arena chunks instead of fresh heap allocations.
	ArenaBytesReused int64 `json:"arena_bytes_reused"`
}

// Add accumulates o into s.
func (s *BuildStats) Add(o BuildStats) {
	s.BuildNS += o.BuildNS
	s.NodesKerneled += o.NodesKerneled
	s.PairsKerneled += o.PairsKerneled
	s.EntriesBuilt += o.EntriesBuilt
	s.NodesReused += o.NodesReused
	s.ArenaBytesReused += o.ArenaBytesReused
}

// Sub returns s - o (the delta between two cumulative snapshots).
func (s BuildStats) Sub(o BuildStats) BuildStats {
	return BuildStats{
		BuildNS:          s.BuildNS - o.BuildNS,
		NodesKerneled:    s.NodesKerneled - o.NodesKerneled,
		PairsKerneled:    s.PairsKerneled - o.PairsKerneled,
		EntriesBuilt:     s.EntriesBuilt - o.EntriesBuilt,
		NodesReused:      s.NodesReused - o.NodesReused,
		ArenaBytesReused: s.ArenaBytesReused - o.ArenaBytesReused,
	}
}

// protoEntry is one kernel cube of one pair. The function cube
// (co-kernel ∪ column) is not stored: it only determines the entry's
// node-local cube ordinal and weight, both computed at kernel time so
// the cube itself can live in per-batch scratch storage. ord = -1
// records a contradictory union: assemble still interns the column
// but adds no entry.
type protoEntry struct {
	col     sop.Cube
	colHash uint64
	// ord is the first-occurrence ordinal of the entry's function cube
	// among the node's entries in emission order; cube ids are assigned
	// in exactly that order, so assemble can label the cube
	// nodeCubeBase + ord + 1 without re-hashing it.
	ord    int32
	weight int32
}

// protoPair is one (kernel, co-kernel) pair as a slice [lo:hi) of the
// owning proto's flat entry list.
type protoPair struct {
	coKernel sop.Cube
	lo, hi   int32
}

// nodeProto is the cached, label-free kernel data of one node. Every
// cube it references is owned by its arena (or by the node's own
// function expression); the arena is recycled when the proto is
// replaced or dropped.
type nodeProto struct {
	node    sop.Var
	arena   *sop.Arena
	pairs   []protoPair
	entries []protoEntry
	// distinct is the number of distinct function cubes across the
	// node's entries — how many cube ids assemble must reserve.
	distinct int32
}

// Patcher caches per-node kernel protos and assembles KC matrices from
// them, re-kerneling only nodes that were marked dirty since the last
// Rebuild. The zero Patcher is not ready; use NewPatcher. A Patcher is
// not safe for concurrent use except where methods say otherwise.
type Patcher struct {
	proc   int
	opts   kernels.Options
	protos map[sop.Var]*nodeProto
	dirty  map[sop.Var]struct{}
	// free holds recycled arenas ready for reuse; retired holds arenas
	// whose chunks may still be referenced by the outgoing matrix and
	// become free at the next Rebuild.
	free    []*sop.Arena
	retired []*sop.Arena
	// arenas is the registry of every arena this patcher created, in
	// creation order, so stats can be summed deterministically.
	arenas []*sop.Arena
	stats  BuildStats
}

// NewPatcher returns a patcher whose assembled labels start at
// proc·Stride+1 (paper §5.2): proc 0 labels from 1, proc 1 from
// 100001, matching the paper's Example 5.1.
func NewPatcher(proc int, opts kernels.Options) *Patcher {
	return &Patcher{
		proc:   proc,
		opts:   opts,
		protos: map[sop.Var]*nodeProto{},
		dirty:  map[sop.Var]struct{}{},
	}
}

// Options returns the kernel options the patcher builds with.
func (p *Patcher) Options() kernels.Options { return p.opts }

// Stats returns the cumulative build counters.
func (p *Patcher) Stats() BuildStats { return p.stats }

// MarkDirty queues node v for re-kerneling at the next Rebuild. Safe
// to call between Rebuilds; the current matrix stays valid.
func (p *Patcher) MarkDirty(v sop.Var) {
	p.dirty[v] = struct{}{}
}

// Drop forgets node v's cached proto (for nodes removed from the
// network). Its arena is recycled at the next Rebuild.
func (p *Patcher) Drop(v sop.Var) {
	if np := p.protos[v]; np != nil {
		p.retired = append(p.retired, np.arena)
		delete(p.protos, v)
	}
	delete(p.dirty, v)
}

// Pending returns, in nodes order, the subset that must be
// (re)kerneled before the next assemble: nodes with no cached proto or
// marked dirty.
func (p *Patcher) Pending(nodes []sop.Var) []sop.Var {
	var out []sop.Var
	for _, v := range nodes {
		if _, ok := p.protos[v]; !ok {
			out = append(out, v)
			continue
		}
		if _, d := p.dirty[v]; d {
			out = append(out, v)
		}
	}
	return out
}

// Batch accumulates freshly kerneled protos. Distinct batches may be
// filled concurrently (one per worker); each batch is single-threaded.
type Batch struct {
	opts    kernels.Options
	kern    kernels.Kerneler
	scratch []kernels.Pair
	// sa is the batch's scratch arena: recursion intermediates and
	// function cubes land here and are recycled at every node, so only
	// data the proto actually keeps occupies the per-node arena.
	sa      *sop.Arena
	tab     cubeTable
	free    []*sop.Arena
	created []*sop.Arena
	protos  []*nodeProto
	// pairsK/entriesK count pairs and (ok) entries generated by this
	// batch, folded into the patcher's stats at Commit.
	pairsK   int64
	entriesK int64
}

// scratchArenas pools batch scratch arenas process-wide: scratch
// storage never escapes a batch (Commit resets it before returning it
// here), so even one-shot Build calls reuse warmed-up chunks.
var scratchArenas = sync.Pool{New: func() any { return new(sop.Arena) }}

// MakeBatches hands out n batches, distributing the patcher's recycled
// arenas among them. Must not be called while batches from a previous
// call are still being filled. Calling it begins a new build: retired
// arenas are recycled here, so the matrix assembled before the previous
// MakeBatches becomes invalid.
func (p *Patcher) MakeBatches(n int) []*Batch {
	if n < 1 {
		n = 1
	}
	p.recycleRetired()
	bs := make([]*Batch, n)
	for i := range bs {
		bs[i] = &Batch{opts: p.opts, sa: scratchArenas.Get().(*sop.Arena)}
	}
	for i, a := range p.free {
		b := bs[i%n]
		b.free = append(b.free, a)
	}
	p.free = p.free[:0]
	return bs
}

// Kernel generates node v's proto into the batch and returns the
// number of (kernel, co-kernel) pairs found, for vtime charging.
func (b *Batch) Kernel(nw *network.Network, v sop.Var) int {
	var a *sop.Arena
	if k := len(b.free); k > 0 {
		a = b.free[k-1]
		b.free = b.free[:k-1]
	} else {
		a = &sop.Arena{}
		b.created = append(b.created, a)
	}
	np := &nodeProto{node: v, arena: a}
	if nd := nw.Node(v); nd != nil {
		b.sa.Reset()
		b.scratch = b.kern.All(nd.Fn, b.opts, a, b.sa, b.scratch[:0])
		pairs := b.scratch
		total := 0
		for i := range pairs {
			total += pairs[i].Kernel.NumCubes()
		}
		np.pairs = make([]protoPair, 0, len(pairs))
		np.entries = make([]protoEntry, 0, total)
		b.tab.reset()
		var distinct int32
		for i := range pairs {
			pr := &pairs[i]
			lo := int32(len(np.entries))
			for _, kc := range pr.Kernel.Cubes() {
				e := protoEntry{col: kc, colHash: kernels.HashCube(kc), ord: -1}
				if fc, uok := pr.CoKernel.UnionArena(kc, b.sa); uok {
					b.entriesK++
					fh := kernels.HashCube(fc)
					id, found := b.tab.lookup(fh, fc)
					if !found {
						distinct++
						id = int64(distinct)
						b.tab.insert(fh, fc, id)
					}
					e.ord = int32(id - 1)
					e.weight = int32(len(fc))
				}
				np.entries = append(np.entries, e)
			}
			np.pairs = append(np.pairs, protoPair{coKernel: pr.CoKernel, lo: lo, hi: int32(len(np.entries))})
		}
		np.distinct = distinct
	}
	b.protos = append(b.protos, np)
	b.pairsK += int64(len(np.pairs))
	return len(np.pairs)
}

// Counts reports the (kernel, co-kernel) pairs and matrix entries this
// batch has generated since it was handed out — the actual kernel work
// its worker performed, for virtual-time charging. Commit folds the
// same numbers into the patcher's stats and zeroes them.
func (b *Batch) Counts() (pairs, entries int64) {
	return b.pairsK, b.entriesK
}

// Commit installs the batches' protos into the cache. Replaced protos'
// arenas are retired (recycled at the next Rebuild, so a matrix
// assembled from the old protos stays valid until then).
func (p *Patcher) Commit(batches ...*Batch) {
	for _, b := range batches {
		for _, np := range b.protos {
			if old := p.protos[np.node]; old != nil && old.arena != np.arena {
				p.retired = append(p.retired, old.arena)
			}
			p.protos[np.node] = np
			delete(p.dirty, np.node)
			p.stats.NodesKerneled++
		}
		p.stats.PairsKerneled += b.pairsK
		p.stats.EntriesBuilt += b.entriesK
		b.pairsK, b.entriesK = 0, 0
		p.free = append(p.free, b.free...)
		p.arenas = append(p.arenas, b.created...)
		if b.sa != nil {
			// Scratch chunks hold nothing the protos reference; return
			// them to the process-wide pool immediately.
			b.sa.Reset()
			scratchArenas.Put(b.sa)
		}
		b.protos, b.free, b.created, b.sa = nil, nil, nil, nil
	}
	var reused int64
	for _, a := range p.arenas {
		reused += a.ReusedBytes()
	}
	p.stats.ArenaBytesReused = reused
}

// recycleRetired resets retired arenas into the free list. Called by
// MakeBatches, when the previous matrix is being replaced and no live
// matrix references the retired chunks anymore.
func (p *Patcher) recycleRetired() {
	for _, a := range p.retired {
		a.Reset()
		p.free = append(p.free, a)
	}
	p.retired = p.retired[:0]
}

// Assemble builds a Matrix from the cached protos of the given nodes,
// in nodes order: rows in node and pair order, columns in order of
// first appearance, and each node's cube ids as one block in
// first-occurrence order, all counting up from proc·Stride+1. Nodes
// with no cached proto are skipped (callers Commit first). nodes must
// not repeat a node: a duplicate occurrence would get a fresh cube-id
// block instead of reusing the first one's ids.
func (p *Patcher) Assemble(nodes []sop.Var) *Matrix {
	base := int64(p.proc) * Stride
	rowSeq, colSeq, cubeSeq := base, base, base

	totalRows, totalEntries := 0, 0
	for _, v := range nodes {
		if np := p.protos[v]; np != nil {
			totalRows += len(np.pairs)
			totalEntries += len(np.entries)
		}
	}

	m := NewMatrix()
	m.rows = make([]*Row, 0, totalRows)
	m.rowByID = make(map[int64]*Row, totalRows)
	rowSlab := make([]Row, totalRows)
	entrySlab := make([]Entry, totalEntries)
	// colRefs records, aligned with entrySlab *insertion* order, the
	// position of each entry's column; per-row sorting of Entries does
	// not disturb the per-row multiset, which is all pass 2 needs.
	colRefs := make([]int32, totalEntries)

	ri, eoff := 0, 0
	for _, v := range nodes {
		np := p.protos[v]
		if np == nil {
			continue
		}
		cubeBase := cubeSeq
		for _, pr := range np.pairs {
			rowSeq++
			row := &rowSlab[ri]
			ri++
			row.ID = rowSeq
			row.Node = v
			row.CoKernel = pr.coKernel
			start := eoff
			for _, e := range np.entries[pr.lo:pr.hi] {
				col := m.colTab.lookupHashed(e.colHash, e.col)
				if col == nil {
					colSeq++
					col = &Col{ID: colSeq, Cube: e.col, pos: int32(len(m.cols))}
					m.cols = append(m.cols, col)
					m.colTab.insert(e.colHash, col)
					m.colByID[colSeq] = col
				}
				if e.ord < 0 {
					continue
				}
				entrySlab[eoff] = Entry{Col: col.ID, CubeID: cubeBase + int64(e.ord) + 1, Weight: int(e.weight)}
				colRefs[eoff] = col.pos
				eoff++
			}
			row.Entries = entrySlab[start:eoff:eoff]
			slicesSortEntries(row.Entries)
			m.rows = append(m.rows, row)
			m.rowByID[row.ID] = row
			m.entries += len(row.Entries)
		}
		cubeSeq = cubeBase + int64(np.distinct)
		if np.distinct > 0 {
			m.maxCubeID = cubeSeq
		}
	}

	// Pass 2: exact-capacity RowIDs per column from one backing slab,
	// filled in row order (row ids increase, so each list is sorted).
	counts := make([]int32, len(m.cols))
	for _, cp := range colRefs[:eoff] {
		counts[cp]++
	}
	rowIDSlab := make([]int64, eoff)
	off := int32(0)
	for i, c := range m.cols {
		c.RowIDs = rowIDSlab[off : off : off+counts[i]]
		off += counts[i]
	}
	cur := 0
	for _, r := range m.rows {
		for _, cp := range colRefs[cur : cur+len(r.Entries)] {
			c := m.cols[cp]
			c.RowIDs = append(c.RowIDs, r.ID)
		}
		cur += len(r.Entries)
	}
	m.invalidate()
	return m
}

// slicesSortEntries sorts a row's entries by column id.
func slicesSortEntries(entries []Entry) {
	// Rows are typically short; fall through to the generic sort only
	// when an out-of-order pair exists.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Col > entries[i].Col {
			sortEntrySlice(entries)
			return
		}
	}
}

// Rebuild re-kernels the pending subset of nodes across the given
// number of workers, then assembles the full matrix. The result is
// bit-identical for any worker count and however much of the cache
// was reused. On ctx cancellation kerneling stops at the next node
// boundary and the partial result must be discarded.
//
// Calling Rebuild invalidates the matrix returned by the previous
// Rebuild on this patcher: its dirty nodes' cube storage is recycled.
func (p *Patcher) Rebuild(ctx context.Context, nw *network.Network, nodes []sop.Var, workers int) *Matrix {
	start := time.Now()
	pending := p.Pending(nodes)
	p.stats.NodesReused += int64(len(nodes) - len(pending))
	bs := p.MakeBatches(min(workers, len(pending)))
	// Shard w kernels pending[w], pending[w+n], ...; shard 0 runs on
	// the calling goroutine, so a one-worker build starts none.
	kernelShard := func(w int) {
		for i := w; i < len(pending); i += len(bs) {
			if ctx.Err() != nil {
				return
			}
			bs[w].Kernel(nw, pending[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < len(bs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernelShard(w)
		}()
	}
	kernelShard(0)
	wg.Wait()
	p.Commit(bs...)
	m := p.Assemble(nodes)
	p.stats.BuildNS += time.Since(start).Nanoseconds()
	return m
}

// Build constructs the KC matrix for the given nodes of nw with
// proc-0 labels on one worker: the sequential construction of §2,
// through a fresh Patcher. The build is abandoned at the next node
// boundary once ctx is cancelled; callers that care must check
// ctx.Err() and discard the partial matrix.
func Build(ctx context.Context, nw *network.Network, nodes []sop.Var, opts kernels.Options) *Matrix {
	return NewPatcher(0, opts).Rebuild(ctx, nw, nodes, 1)
}

// cubeTable maps function cubes to ids: an open-addressing table over
// the shared kernel-cube hash. A Batch uses it to number each node's
// distinct function cubes in first-occurrence order.
type cubeTable struct {
	slots []cubeSlot
	n     int
}

type cubeSlot struct {
	hash uint64
	cube sop.Cube
	id   int64 // 0 = empty (ids start at 1)
}

// reset clears the table while keeping its slot storage.
func (t *cubeTable) reset() {
	for i := range t.slots {
		t.slots[i] = cubeSlot{}
	}
	t.n = 0
}

func (t *cubeTable) lookup(h uint64, c sop.Cube) (int64, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i].id != 0; i = (i + 1) & mask {
		if t.slots[i].hash == h && t.slots[i].cube.Equal(c) {
			return t.slots[i].id, true
		}
	}
	return 0, false
}

func (t *cubeTable) insert(h uint64, c sop.Cube, id int64) {
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = cubeSlot{hash: h, cube: c, id: id}
	t.n++
}

func (t *cubeTable) grow() {
	old := t.slots
	size := 16
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]cubeSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
