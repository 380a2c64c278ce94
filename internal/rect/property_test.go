package rect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// Property tests: on randomized matrices and on the KC matrices of
// generated benchmark circuits, the searcher must agree bit-for-bit —
// rectangles, BestK batches, and Stats — with the map-based reference
// implementation (reference_test.go), for the generic valuer path, the
// CoveredValuer path, the Cover fast path, and under leftmost-column
// decomposition.

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

// checkAgree asserts that Best and BestK (k=4) agree exactly with the
// reference searcher, and returns the stats of the Best search.
func checkAgree(t *testing.T, name string, m *kcm.Matrix, cfg Config, val Valuer) Stats {
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
	return gotStats
}

// TestBestKMatchesReferenceOnBenchmarks compares the two searchers on
// the KC matrices of generated benchmark circuits. Their column lists
// range from a couple of rows to hundreds, so row-subset intersections
// take both the linear merge and the binary-search branch, which the
// small random matrices never leave. Visit caps of 500 and 5000 make
// the searches truncate, and each third of a 3-way leftmost-column
// split must agree on its own.
func TestBestKMatchesReferenceOnBenchmarks(t *testing.T) {
	for _, circuit := range []string{"misex3", "dalu", "des"} {
		nw, err := gen.Benchmark(circuit)
		if err != nil {
			t.Fatal(err)
		}
		m := kcm.Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
		cover := NewCover(m)
		for i, id := range allCubeIDs(m) {
			if i%3 == 0 {
				cover.Mark(id)
			}
		}
		cols := m.SortedColIDs()
		truncated := 0
		for _, maxVisits := range []int{500, 5000} {
			name := fmt.Sprintf("%s/visits=%d", circuit, maxVisits)
			base := Config{MaxCols: 5, MaxVisits: maxVisits}
			covered := base
			covered.Cover = cover
			for _, st := range []Stats{
				checkAgree(t, name+"/weight", m, base, WeightValuer),
				checkAgree(t, name+"/cover", m, covered, nil),
			} {
				if st.Truncated {
					truncated++
				}
			}
			for p := 0; p < 3; p++ {
				lo, hi := p*len(cols)/3, (p+1)*len(cols)/3
				slice := covered
				slice.LeftmostCols = append([]int64(nil), cols[lo:hi]...)
				checkAgree(t, fmt.Sprintf("%s/slice%d", name, p), m, slice, nil)
			}
		}
		if truncated == 0 {
			t.Fatalf("%s: no search hit its visit cap", circuit)
		}
	}
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzBestKMatchesReference builds a random matrix, covered subset,
// search caps and leftmost-column subset from the fuzz input and
// requires exact agreement with the reference searcher, both on the
// Cover fast path and through the generic valuer.
func FuzzBestKMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte("rectangle covering"))
	f.Add([]byte{0x7f, 0x11, 0x0c, 0x01, 0xa5, 0x03, 0x02, 0x01, 0xff, 0x00, 0x3c})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		rng := rand.New(rand.NewSource(int64(b.next()<<8 | b.next())))
		nw, nodes := randNetwork(rng, 4+b.next()%8, 2+b.next()%14)
		m := kcm.NewPatcher(b.next()%2, kernels.Options{}).Rebuild(context.Background(), nw, nodes, 1)
		cover := NewCover(m)
		for _, id := range allCubeIDs(m) {
			if b.next()&1 != 0 {
				cover.Mark(id)
			}
		}
		cfg := Config{
			MaxCols:   1 + b.next()%6,
			MaxVisits: b.next() << 4, // 0 is the package default
			MinRows:   b.next() % 3,  // 0 is the package default
			Cover:     cover,
		}
		if b.next()&1 != 0 {
			for _, c := range m.SortedColIDs() {
				if b.next()&1 != 0 {
					cfg.LeftmostCols = append(cfg.LeftmostCols, c)
				}
			}
		}
		checkAgree(t, "fuzz-cover", m, cfg, nil)
		cfg.Cover = nil
		checkAgree(t, "fuzz-weight", m, cfg, WeightValuer)
	})
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
