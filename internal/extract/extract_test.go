package extract

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blif"
	"repro/internal/equiv"
	"repro/internal/gen"
	"repro/internal/kcm"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

func TestKernelExtractPaperNetwork(t *testing.T) {
	// Paper Example 4.1: "the kernel extraction routine in SIS"
	// takes the Eq. 1 network from 33 to 22 literals.
	nw := network.PaperExample()
	ref := nw.Clone()
	res := KernelExtract(context.Background(), nw, nil, Options{})
	if got := nw.Literals(); got != 22 {
		t.Fatalf("final LC = %d want 22", got)
	}
	if res.Extracted < 2 {
		t.Fatalf("extracted %d kernels, want >= 2", res.Extracted)
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatalf("factored network not equivalent: %v", err)
	}
	if res.Work.Total() == 0 {
		t.Fatal("work counters empty")
	}
}

func TestKernelExtractFirstKernelIsAB(t *testing.T) {
	nw := network.PaperExample()
	var first sop.Expr
	seen := false
	KernelExtract(context.Background(), nw, nil, Options{OnExtract: func(k sop.Expr, _ rectArg) {
		if !seen {
			first = k
			seen = true
		}
	}})
	if !seen {
		t.Fatal("no extraction observed")
	}
	if first.Format(nw.Names.Fmt()) != "a + b" {
		t.Fatalf("first kernel %s want a + b", first.Format(nw.Names.Fmt()))
	}
}

func TestRepeatReachesFixpoint(t *testing.T) {
	nw := network.PaperExample()
	res, calls := Repeat(context.Background(), nw, nil, Options{})
	if nw.Literals() != 22 {
		t.Fatalf("LC after Repeat = %d want 22", nw.Literals())
	}
	if calls < 2 {
		t.Fatalf("calls = %d, the final call must find nothing", calls)
	}
	lc := nw.Literals()
	res2 := KernelExtract(context.Background(), nw, nil, Options{})
	if res2.Extracted != 0 || nw.Literals() != lc {
		t.Fatalf("post-fixpoint extraction changed the network: %d extracted, LC %d -> %d",
			res2.Extracted, lc, nw.Literals())
	}
	_ = res
}

func TestKernelExtractMaxExtractions(t *testing.T) {
	nw := network.PaperExample()
	res := KernelExtract(context.Background(), nw, nil, Options{MaxExtractions: 1})
	if res.Extracted != 1 {
		t.Fatalf("extracted = %d want 1", res.Extracted)
	}
	// One extraction of a+b: 33 - 8 = 25 literals.
	if nw.Literals() != 25 {
		t.Fatalf("LC after one extraction = %d want 25", nw.Literals())
	}
}

func TestZeroCostCheckReproducesExample52(t *testing.T) {
	// Paper Example 5.2 + §5.3: after Y = de+f is extracted from F
	// covering the cubes af, bf, ade, bde, dividing F by X = a+b
	// with the zero-cost check must NOT add the covered cubes back,
	// and must divide the existing representation to get
	// F' = XY + ag + cg + cde (saving 8 instead of 3).
	nw := network.PaperExample()
	names := nw.Names
	F, _ := names.Lookup("F")
	m := kcm.Build(context.Background(), nw, []sop.Var{F}, kernels.Options{})
	// Extract Y = de+f (rows F a, F b; cols f, de).
	Y := nw.NewNodeVar(sop.MustParseExpr(names, "d*e + f"))
	fn := nw.Node(F).Fn
	q, r := fn.Div(nw.Node(Y).Fn)
	nw.SetFn(F, q.MulCube(sop.Cube{sop.Pos(Y)}).Add(r))
	// F = aY + bY + ag + cg + cde.
	if nw.Node(F).Fn.Literals() != 11 {
		t.Fatalf("F after Y extraction has %d literals want 11",
			nw.Node(F).Fn.Literals())
	}
	// Mark the covered cubes in matrix terms.
	covered := rect.NewCover(m)
	for _, row := range m.Rows() {
		ck := row.CoKernel.Format(names.Fmt())
		if ck == "a" || ck == "b" {
			for _, e := range row.Entries {
				cc := m.Col(e.Col).Cube.Format(names.Fmt())
				if cc == "f" || cc == "d*e" {
					covered.Mark(e.CubeID)
				}
			}
		}
	}
	// Now apply the partial rectangle rows (F,de),(F,f) × cols {a,b}.
	var nr NodeRows
	nr.Node = F
	for _, row := range m.Rows() {
		ck := row.CoKernel.Format(names.Fmt())
		if ck == "d*e" || ck == "f" {
			nr.Rows = append(nr.Rows, row.ID)
		}
	}
	for _, col := range m.Cols() {
		cc := col.Cube.Format(names.Fmt())
		if cc == "a" || cc == "b" {
			nr.Cols = append(nr.Cols, col.ID)
		}
	}
	zc, addBack := ZeroCostGain(m, nr, covered)
	if zc > 0 {
		t.Fatalf("zero-cost gain = %d, want <= 0 (all four cubes covered)", zc)
	}
	X := nw.NewNodeVar(sop.MustParseExpr(names, "a + b"))
	kernel := nw.Node(X).Fn
	_, changed := DivideNode(nw, F, X, kernel, nil, zc)
	if !changed {
		t.Fatal("existing representation division should succeed (q = Y)")
	}
	// F' = XY + ag + cg + cde = 9 literals.
	if got := nw.Node(F).Fn.Literals(); got != 9 {
		t.Fatalf("F' literals = %d want 9 (%s)", got,
			nw.Node(F).Fn.Format(names.Fmt()))
	}
	// The naive path (always add back) yields the paper's bad
	// outcome: F = XY + ag + cg + cde + deX + fX (13 literals,
	// saving only 3 overall).
	nw2 := network.PaperExample()
	F2, _ := nw2.Names.Lookup("F")
	Y2 := nw2.NewNodeVar(sop.MustParseExpr(nw2.Names, "d*e + f"))
	fn2 := nw2.Node(F2).Fn
	q2, r2 := fn2.Div(nw2.Node(Y2).Fn)
	nw2.SetFn(F2, q2.MulCube(sop.Cube{sop.Pos(Y2)}).Add(r2))
	X2 := nw2.NewNodeVar(sop.MustParseExpr(nw2.Names, "a + b"))
	_, changed2 := DivideNode(nw2, F2, X2, nw2.Node(X2).Fn, addBack, 1 /* force add-back */)
	if changed2 {
		// If the division applies, the result must be worse than
		// the checked path (the guard may also reject it).
		if nw2.Node(F2).Fn.Literals() <= 9 {
			t.Fatalf("naive add-back unexpectedly good: %d literals",
				nw2.Node(F2).Fn.Literals())
		}
	}
}

func TestKernelExtractSubsetOfNodes(t *testing.T) {
	// Restricting to {G, H} must not touch F (the §4 independent
	// partition behaviour).
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	G, _ := nw.Names.Lookup("G")
	H, _ := nw.Names.Lookup("H")
	fBefore := nw.Node(F).Fn
	KernelExtract(context.Background(), nw, []sop.Var{G, H}, Options{})
	if !nw.Node(F).Fn.Equal(fBefore) {
		t.Fatal("F was modified though not in the node set")
	}
	// Example 4.1: partition {G,H} factors to G = ceZ + fZ,
	// H = deY, Z = a+b, Y = a+c (but Y=a+c only saves if shared;
	// dividing H alone by a+c has zero gain, so H may stay).
	ref := network.PaperExample()
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeExtract(t *testing.T) {
	// abc appears in three nodes: extracting it (k=3, w=3) saves
	// 3*2 - 3 = 3 literals.
	nw := network.New("cubes")
	for _, in := range []string{"a", "b", "c", "d", "e", "f"} {
		nw.AddInput(in)
	}
	nw.MustAddNode("x", sop.MustParseExpr(nw.Names, "a*b*c*d + e"))
	nw.MustAddNode("y", sop.MustParseExpr(nw.Names, "a*b*c*e + f"))
	nw.MustAddNode("z", sop.MustParseExpr(nw.Names, "a*b*c*f + d"))
	nw.AddOutput("x")
	nw.AddOutput("y")
	nw.AddOutput("z")
	ref := nw.Clone()
	before := nw.Literals()
	res := CubeExtract(nw, nil, 0)
	if res.Extracted == 0 {
		t.Fatal("no cube extracted")
	}
	if nw.Literals() >= before {
		t.Fatalf("LC %d did not improve from %d", nw.Literals(), before)
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeExtractNoCandidates(t *testing.T) {
	nw := network.New("flat")
	nw.AddInput("a")
	nw.AddInput("b")
	nw.MustAddNode("x", sop.MustParseExpr(nw.Names, "a + b"))
	nw.AddOutput("x")
	res := CubeExtract(nw, nil, 0)
	if res.Extracted != 0 {
		t.Fatalf("extracted %d cubes from cube-free network", res.Extracted)
	}
}

// Property: kernel extraction on random planted networks always
// reduces or preserves LC and preserves functionality.
func TestQuickExtractPreservesFunction(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw := randomNetwork(r)
		ref := nw.Clone()
		before := nw.Literals()
		KernelExtract(context.Background(), nw, nil, Options{})
		if nw.Literals() > before {
			return false
		}
		return equiv.Check(ref, nw, equiv.Options{}) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// randomNetwork plants a shared kernel into a few nodes so extraction
// has something to find.
func randomNetwork(r *rand.Rand) *network.Network {
	nw := network.New("rand")
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, in := range names {
		nw.AddInput(in)
	}
	mk := func() sop.Cube {
		n := 1 + r.Intn(2)
		lits := make([]sop.Lit, 0, n)
		for i := 0; i < n; i++ {
			v, _ := nw.Names.Lookup(names[r.Intn(len(names))])
			lits = append(lits, sop.Pos(v))
		}
		c, _ := sop.NewCube(lits...)
		return c
	}
	// Shared kernel with 2-3 cubes.
	var kc []sop.Cube
	for i := 0; i < 2+r.Intn(2); i++ {
		kc = append(kc, mk())
	}
	kernel := sop.NewExpr(kc...)
	nodes := 2 + r.Intn(3)
	for i := 0; i < nodes; i++ {
		// node = kernel * cube + noise cubes
		f := kernel.MulCube(mk())
		for j := 0; j < r.Intn(3); j++ {
			f = f.AddCube(mk())
		}
		if f.IsZero() {
			f = sop.One()
		}
		name := string(rune('p' + i))
		nw.MustAddNode(name, f)
		nw.AddOutput(name)
	}
	return nw
}

// rectArg aliases rect.Rect for the OnExtract signature.
type rectArg = rect.Rect

// TestRepeatPatcherMatchesFreshPatchers pins the equivalence the
// incremental build rests on: Repeat, which shares one Patcher across
// all its calls, factors exactly like a loop of KernelExtract calls
// that each build their matrix from scratch with a call-local
// patcher — byte-identical BLIF and equal extraction, search and
// division counters.
func TestRepeatPatcherMatchesFreshPatchers(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		circuit string
		opt     Options
	}{
		{"misex3", Options{Rect: rect.Config{MaxCols: 5, MaxVisits: 50000}, BatchK: 16}},
		{"dalu", Options{Rect: rect.Config{MaxVisits: 20000}}},
	} {
		t.Run(tc.circuit, func(t *testing.T) {
			// Two independent copies: a Clone would share the name
			// table, and with it the counter naming new nodes.
			shared, err := gen.Benchmark(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := gen.Benchmark(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}

			got, gotCalls := Repeat(ctx, shared, nil, tc.opt)

			var want Result
			wantCalls := 0
			active := fresh.NodeVars()
			for {
				wantCalls++
				before := fresh.NumNodes()
				res := KernelExtract(ctx, fresh, active, tc.opt)
				want.Extracted += res.Extracted
				want.Iterations += res.Iterations
				want.Work.Add(res.Work)
				if res.Extracted == 0 {
					break
				}
				active = append(active, fresh.NodeVars()[before:]...)
			}

			if got.Extracted != want.Extracted || got.Iterations != want.Iterations ||
				got.Work.SearchVisits != want.Work.SearchVisits ||
				got.Work.DivisionCubes != want.Work.DivisionCubes || gotCalls != wantCalls {
				t.Fatalf("shared patcher: extracted %d, iterations %d, visits %d, division cubes %d, calls %d; "+
					"fresh patchers: %d, %d, %d, %d, %d",
					got.Extracted, got.Iterations, got.Work.SearchVisits, got.Work.DivisionCubes, gotCalls,
					want.Extracted, want.Iterations, want.Work.SearchVisits, want.Work.DivisionCubes, wantCalls)
			}
			var a, b bytes.Buffer
			if err := blif.Write(&a, shared); err != nil {
				t.Fatal(err)
			}
			if err := blif.Write(&b, fresh); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("BLIF differs between shared and fresh patchers (%d vs %d bytes)", a.Len(), b.Len())
			}
		})
	}
}
