package kcm

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sop"
)

// TestFinalizeSingleSortIndexIdentical pins Assemble's column
// row-lists: every column's RowIDs comes out sorted ascending and
// holds precisely the rows with an entry in that column, so no
// finalize sort is needed afterwards.
func TestFinalizeSingleSortIndexIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nw, nodes := randomNetwork(r, 12)

	p := NewPatcher(0, kernels.Options{})
	bs := p.MakeBatches(1)
	for _, v := range nodes {
		bs[0].Kernel(nw, v)
	}
	p.Commit(bs...)
	m := p.Assemble(nodes)

	// Recompute every column's row set from the rows themselves.
	want := map[int64][]int64{}
	for _, row := range m.Rows() {
		for _, e := range row.Entries {
			want[e.Col] = append(want[e.Col], row.ID)
		}
	}
	for _, c := range m.Cols() {
		if !sort.SliceIsSorted(c.RowIDs, func(i, j int) bool { return c.RowIDs[i] < c.RowIDs[j] }) {
			t.Fatalf("col %d: RowIDs not sorted after assemble: %v", c.ID, c.RowIDs)
		}
		w := want[c.ID]
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if len(w) != len(c.RowIDs) {
			t.Fatalf("col %d: RowIDs %v, want %v", c.ID, c.RowIDs, w)
		}
		for i := range w {
			if w[i] != c.RowIDs[i] {
				t.Fatalf("col %d: RowIDs %v, want %v", c.ID, c.RowIDs, w)
			}
		}
	}

	// A redundant explicit sort must be a no-op: assemble left no
	// column in a pending-unsorted state, and the reference Builder's
	// finalize-sorted matrix agrees label for label.
	m.SortColRows()
	requireIdentical(t, referenceBuild(nw, nodes, 0, kernels.Options{}), m)
}

// FuzzPatcherEqualsRebuild fuzzes the incremental invalidation
// protocol: starting from a random network, a fuzz-chosen subset of
// nodes is rewritten and marked dirty, and the patched matrix must be
// bit-identical to the reference Builder's from-scratch build of the
// mutated network, at every worker count in {1,2,4,8}.
func FuzzPatcherEqualsRebuild(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0b1010))
	f.Add(int64(42), uint8(8), uint8(0b0110_1001))
	f.Add(int64(7), uint8(1), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, nNodes, mutMask uint8) {
		ctx := context.Background()
		n := 1 + int(nNodes%12)
		for _, workers := range []int{1, 2, 4, 8} {
			nw, nodes := randomNetwork(rand.New(rand.NewSource(seed)), n)

			pat := NewPatcher(0, kernels.Options{})
			pat.Rebuild(ctx, nw, nodes, workers)

			// Rewrite the masked nodes (dropping a cube keeps the
			// function a valid SOP) and mark them dirty.
			for i, v := range nodes {
				if mutMask&(1<<(i%8)) == 0 {
					continue
				}
				fn := nw.Node(v).Fn
				if fn.NumCubes() < 3 {
					continue
				}
				mut := sop.NewExpr(fn.Cubes()[:fn.NumCubes()-1]...)
				if err := nw.SetFn(v, mut); err != nil {
					t.Fatalf("SetFn: %v", err)
				}
				pat.MarkDirty(v)
			}

			got := pat.Rebuild(ctx, nw, nodes, workers)
			requireIdentical(t, referenceBuild(nw, nodes, 0, kernels.Options{}), got)
		}
	})
}
