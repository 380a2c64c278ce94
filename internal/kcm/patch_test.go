package kcm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// requireIdentical asserts full bit-identity of two matrices: row
// order, every label, every entry, every column row-list.
func requireIdentical(t *testing.T, want, got *Matrix) {
	t.Helper()
	if len(want.rows) != len(got.rows) {
		t.Fatalf("rows: want %d, got %d", len(want.rows), len(got.rows))
	}
	for i, wr := range want.rows {
		gr := got.rows[i]
		if wr.ID != gr.ID || wr.Node != gr.Node || !wr.CoKernel.Equal(gr.CoKernel) {
			t.Fatalf("row %d: want {%d %d %v}, got {%d %d %v}", i, wr.ID, wr.Node, wr.CoKernel, gr.ID, gr.Node, gr.CoKernel)
		}
		if len(wr.Entries) != len(gr.Entries) {
			t.Fatalf("row %d entries: want %d, got %d", i, len(wr.Entries), len(gr.Entries))
		}
		for j, we := range wr.Entries {
			if we != gr.Entries[j] {
				t.Fatalf("row %d entry %d: want %+v, got %+v", i, j, we, gr.Entries[j])
			}
		}
	}
	if len(want.cols) != len(got.cols) {
		t.Fatalf("cols: want %d, got %d", len(want.cols), len(got.cols))
	}
	for i, wc := range want.cols {
		gc := got.cols[i]
		if wc.ID != gc.ID || !wc.Cube.Equal(gc.Cube) {
			t.Fatalf("col %d: want {%d %v}, got {%d %v}", i, wc.ID, wc.Cube, gc.ID, gc.Cube)
		}
		if len(wc.RowIDs) != len(gc.RowIDs) {
			t.Fatalf("col %d rows: want %v, got %v", i, wc.RowIDs, gc.RowIDs)
		}
		for j := range wc.RowIDs {
			if wc.RowIDs[j] != gc.RowIDs[j] {
				t.Fatalf("col %d rows: want %v, got %v", i, wc.RowIDs, gc.RowIDs)
			}
		}
	}
	if want.entries != got.entries || want.maxCubeID != got.maxCubeID {
		t.Fatalf("entries/maxCubeID: want %d/%d, got %d/%d", want.entries, want.maxCubeID, got.entries, got.maxCubeID)
	}
}

// randomNetwork builds a small random multi-node network for property
// tests, with enough shared structure that kernels overlap across
// nodes.
func randomNetwork(r *rand.Rand, nNodes int) (*network.Network, []sop.Var) {
	nw := network.New("rand")
	ins := make([]sop.Var, 6)
	for i := range ins {
		ins[i] = nw.AddInput(fmt.Sprintf("x%d", i))
	}
	var nodes []sop.Var
	for n := 0; n < nNodes; n++ {
		nc := 2 + r.Intn(4)
		cubes := make([]sop.Cube, 0, nc)
		for i := 0; i < nc; i++ {
			nl := 1 + r.Intn(3)
			lits := make([]sop.Lit, 0, nl)
			for j := 0; j < nl; j++ {
				lits = append(lits, sop.MkLit(ins[r.Intn(len(ins))], r.Intn(2) == 0))
			}
			if c, ok := sop.NewCube(lits...); ok {
				cubes = append(cubes, c)
			}
		}
		fn := sop.NewExpr(cubes...)
		if fn.NumCubes() < 2 {
			fn = sop.NewExpr(sop.Cube{sop.Pos(ins[0])}, sop.Cube{sop.Pos(ins[1])})
		}
		v, err := nw.AddNode(fmt.Sprintf("n%d", n), fn)
		if err != nil {
			panic(err)
		}
		nodes = append(nodes, v)
	}
	return nw, nodes
}

// TestBuildParallelBitIdentical checks the Patcher against the
// reference Builder on the paper network for every worker count in
// {1,2,4,8}, and Build against the same reference.
func TestBuildParallelBitIdentical(t *testing.T) {
	ctx := context.Background()
	nw := network.PaperExample()
	nodes := nw.NodeVars()
	want := referenceBuild(nw, nodes, 0, kernels.Options{})
	requireIdentical(t, want, Build(ctx, nw, nodes, kernels.Options{}))
	for _, p := range []int{1, 2, 4, 8} {
		got := NewPatcher(0, kernels.Options{}).Rebuild(ctx, nw, nodes, p)
		requireIdentical(t, want, got)
	}
}

// Property: for random networks, a random processor offset and any
// worker count in {1,2,4,8}, Patcher.Rebuild is bit-identical to the
// reference Builder on the same processor.
func TestQuickBuildParallelEqualsBuild(t *testing.T) {
	ctx := context.Background()
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw, nodes := randomNetwork(r, 3+r.Intn(8))
		proc := r.Intn(4)
		want := referenceBuild(nw, nodes, proc, kernels.Options{})
		for _, p := range []int{1, 2, 4, 8} {
			got := NewPatcher(proc, kernels.Options{}).Rebuild(ctx, nw, nodes, p)
			if !identical(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// identical is requireIdentical as a predicate for quick.Check.
func identical(want, got *Matrix) bool {
	if len(want.rows) != len(got.rows) || len(want.cols) != len(got.cols) ||
		want.entries != got.entries || want.maxCubeID != got.maxCubeID {
		return false
	}
	for i, wr := range want.rows {
		gr := got.rows[i]
		if wr.ID != gr.ID || wr.Node != gr.Node || !wr.CoKernel.Equal(gr.CoKernel) || len(wr.Entries) != len(gr.Entries) {
			return false
		}
		for j := range wr.Entries {
			if wr.Entries[j] != gr.Entries[j] {
				return false
			}
		}
	}
	for i, wc := range want.cols {
		gc := got.cols[i]
		if wc.ID != gc.ID || !wc.Cube.Equal(gc.Cube) || len(wc.RowIDs) != len(gc.RowIDs) {
			return false
		}
		for j := range wc.RowIDs {
			if wc.RowIDs[j] != gc.RowIDs[j] {
				return false
			}
		}
	}
	return true
}

// Property: after a random sequence of node mutations with MarkDirty,
// the patcher's incremental Rebuild is bit-identical to the reference
// Builder's from-scratch build of the mutated network.
func TestQuickPatcherEqualsFromScratch(t *testing.T) {
	ctx := context.Background()
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw, nodes := randomNetwork(r, 4+r.Intn(6))
		p := NewPatcher(0, kernels.Options{})
		got := p.Rebuild(ctx, nw, nodes, 1+r.Intn(4))
		if !identical(referenceBuild(nw, nodes, 0, kernels.Options{}), got) {
			return false
		}
		for round := 0; round < 3; round++ {
			// Mutate 1–2 random nodes, mark them dirty.
			for k := 0; k < 1+r.Intn(2); k++ {
				v := nodes[r.Intn(len(nodes))]
				mutated, extra := randomNetwork(r, 1)
				_ = extra
				fn := mutated.Node(extra[0]).Fn
				// Re-home the mutated function onto nw's input vars:
				// both networks number their 6 inputs identically.
				if err := nw.SetFn(v, fn); err != nil {
					return true // skip: mutation rejected
				}
				p.MarkDirty(v)
			}
			got = p.Rebuild(ctx, nw, nodes, 1+r.Intn(4))
			if !identical(referenceBuild(nw, nodes, 0, kernels.Options{}), got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPatcherReusesArenas asserts the arena recycling protocol: after
// dirtying and rebuilding, recycled chunk bytes show up in the stats,
// and the matrix from the previous round stays untouched until the
// next Rebuild call.
func TestPatcherReusesArenas(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	nw, nodes := randomNetwork(r, 8)
	p := NewPatcher(0, kernels.Options{})
	p.Rebuild(ctx, nw, nodes, 2)
	for round := 0; round < 4; round++ {
		for _, v := range nodes {
			p.MarkDirty(v)
		}
		p.Rebuild(ctx, nw, nodes, 2)
	}
	st := p.Stats()
	if st.ArenaBytesReused == 0 {
		t.Fatalf("expected arena reuse after %d full-dirty rebuilds, stats=%+v", 4, st)
	}
	if st.NodesKerneled != int64(len(nodes)*5) {
		t.Fatalf("NodesKerneled = %d, want %d", st.NodesKerneled, len(nodes)*5)
	}
}

// TestPatcherSkipsCleanNodes asserts rebuilds-avoided accounting: a
// second Rebuild with nothing dirty kernels zero nodes.
func TestPatcherSkipsCleanNodes(t *testing.T) {
	ctx := context.Background()
	nw := network.PaperExample()
	nodes := nw.NodeVars()
	p := NewPatcher(0, kernels.Options{})
	m1 := p.Rebuild(ctx, nw, nodes, 1)
	kerneled := p.Stats().NodesKerneled
	m2 := p.Rebuild(ctx, nw, nodes, 1)
	if p.Stats().NodesKerneled != kerneled {
		t.Fatalf("clean rebuild re-kerneled nodes: %d -> %d", kerneled, p.Stats().NodesKerneled)
	}
	if p.Stats().NodesReused != int64(len(nodes)) {
		t.Fatalf("NodesReused = %d, want %d", p.Stats().NodesReused, len(nodes))
	}
	requireIdentical(t, m1, m2)
}
