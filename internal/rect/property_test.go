package rect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// Property tests: on randomized matrices, the bitset searcher must
// agree bit-for-bit — rectangles, BestK batches, and Stats — with the
// retained pre-bitset reference implementation (reference_test.go), for
// the generic valuer path, the CoveredValuer path, the Cover fast
// path, and under leftmost-column decomposition.

// randExpr builds a random positive-phase SOP over the given inputs.
func randExpr(rng *rand.Rand, ins []sop.Var) sop.Expr {
	nc := 4 + rng.Intn(7)
	cubes := make([]sop.Cube, 0, nc)
	for i := 0; i < nc; i++ {
		nl := 1 + rng.Intn(3)
		lits := make([]sop.Lit, 0, nl)
		for j := 0; j < nl; j++ {
			lits = append(lits, sop.Pos(ins[rng.Intn(len(ins))]))
		}
		if c, ok := sop.NewCube(lits...); ok {
			cubes = append(cubes, c)
		}
	}
	return sop.NewExpr(cubes...)
}

// randNetwork builds a network of nn random nodes over nv inputs and
// returns it with its node variables.
func randNetwork(rng *rand.Rand, nv, nn int) (*network.Network, []sop.Var) {
	nw := network.New("rand")
	ins := make([]sop.Var, nv)
	for i := range ins {
		ins[i] = nw.AddInput(fmt.Sprintf("x%d", i))
	}
	nodes := make([]sop.Var, nn)
	for i := range nodes {
		v, err := nw.AddNode(fmt.Sprintf("n%d", i), randExpr(rng, ins))
		if err != nil {
			panic(err)
		}
		nodes[i] = v
	}
	return nw, nodes
}

// randMatrix builds the KC matrix of a random network with a proc-
// labeled Patcher; proc > 0 exercises the §5.2 offset labels.
func randMatrix(rng *rand.Rand, proc int) *kcm.Matrix {
	nw, nodes := randNetwork(rng, 6+rng.Intn(5), 3+rng.Intn(4))
	return kcm.NewPatcher(proc, kernels.Options{}).Rebuild(context.Background(), nw, nodes, 1)
}

// allCubeIDs lists the distinct cube ids of the matrix.
func allCubeIDs(m *kcm.Matrix) []int64 {
	seen := map[int64]bool{}
	var ids []int64
	for _, r := range m.Rows() {
		for _, e := range r.Entries {
			if !seen[e.CubeID] {
				seen[e.CubeID] = true
				ids = append(ids, e.CubeID)
			}
		}
	}
	return ids
}

func checkAgree(t *testing.T, name string, m *kcm.Matrix, cfg Config, val Valuer) {
	t.Helper()
	got, gotStats := Best(m, cfg, val)
	want, wantStats := ReferenceBest(m, cfg, val)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Best = %+v, reference = %+v", name, got, want)
	}
	if gotStats != wantStats {
		t.Fatalf("%s: Stats = %+v, reference = %+v", name, gotStats, wantStats)
	}
	gotK, gotKStats := BestK(m, cfg, val, 4)
	wantK, wantKStats := ReferenceBestK(m, cfg, val, 4)
	if !reflect.DeepEqual(gotK, wantK) {
		t.Fatalf("%s: BestK = %+v, reference = %+v", name, gotK, wantK)
	}
	if gotKStats != wantKStats {
		t.Fatalf("%s: BestK Stats = %+v, reference = %+v", name, gotKStats, wantKStats)
	}
}

func TestPropertyBestMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, int(seed%3)/2) // every third seed proc-1 labeled

		// Uncovered, generic valuer.
		checkAgree(t, "weight", m, Config{}, WeightValuer)

		// Random covered subset through the generic CoveredValuer.
		covered := map[int64]bool{}
		for _, id := range allCubeIDs(m) {
			if rng.Intn(3) == 0 {
				covered[id] = true
			}
		}
		checkAgree(t, "covered-map", m, Config{}, CoveredValuer(covered))

		// Same subset through the Cover fast path: both searchers
		// take the value from cfg.Cover.
		cover := NewCover(m)
		for id := range covered {
			cover.Mark(id)
		}
		checkAgree(t, "cover", m, Config{Cover: cover}, nil)

		// Tighter bounds still agree (including Truncated).
		checkAgree(t, "bounded", m, Config{MaxCols: 3, MaxVisits: 50, Cover: cover}, nil)

		// Leftmost-column decomposition: each slice agrees.
		cols := m.SortedColIDs()
		for p := 0; p < 3; p++ {
			lo, hi := p*len(cols)/3, (p+1)*len(cols)/3
			cfg := Config{Cover: cover, LeftmostCols: append([]int64(nil), cols[lo:hi]...)}
			checkAgree(t, "slice", m, cfg, nil)
		}
	}
}

// TestPropertyGreedyCoverMatchesReference drives the full greedy
// cover loop — search, mark the winner's cubes, repeat — asserting
// agreement at every step. This exercises the Cover's column-value
// cache invalidation across Marks.
func TestPropertyGreedyCoverMatchesReference(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, int(seed%2))
		cover := NewCover(m)
		refCovered := map[int64]bool{}
		cfg := Config{Cover: cover}
		for round := 0; ; round++ {
			got, gotStats := Best(m, cfg, nil)
			want, wantStats := ReferenceBest(m, Config{}, CoveredValuer(refCovered))
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("seed %d round %d: got %+v %+v, want %+v %+v",
					seed, round, got, gotStats, want, wantStats)
			}
			if got.Rows == nil {
				break
			}
			for _, id := range coveredCubeIDs(m, got) {
				cover.Mark(id)
				refCovered[id] = true
			}
		}
	}
}

// TestPropertySharedCubeSet checks that Covers of different matrices
// sharing one CubeSet observe each other's marks (the L-shaped
// configuration), including through their column-value caches.
func TestPropertySharedCubeSet(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw, nodes := randNetwork(rng, 8, 8)
		ctx := context.Background()
		m0 := kcm.NewPatcher(0, kernels.Options{}).Rebuild(ctx, nw, nodes[:4], 1)
		m1 := kcm.NewPatcher(1, kernels.Options{}).Rebuild(ctx, nw, nodes[4:], 1)
		maxID := m0.MaxCubeID()
		if id := m1.MaxCubeID(); id > maxID {
			maxID = id
		}
		set := NewCubeSet(maxID)
		c0, c1 := NewCoverShared(m0, set), NewCoverShared(m1, set)
		refCovered := map[int64]bool{}

		// Alternate searches over the two matrices, marking winners
		// through whichever Cover found them.
		mats := []*kcm.Matrix{m0, m1}
		covs := []*Cover{c0, c1}
		for round := 0; round < 8; round++ {
			p := round % 2
			got, _ := Best(mats[p], Config{Cover: covs[p]}, nil)
			want, _ := ReferenceBest(mats[p], Config{}, CoveredValuer(refCovered))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: got %+v want %+v", seed, round, got, want)
			}
			if got.Rows == nil {
				continue
			}
			for _, id := range coveredCubeIDs(mats[p], got) {
				covs[p].Mark(id)
				refCovered[id] = true
			}
		}
	}
}
