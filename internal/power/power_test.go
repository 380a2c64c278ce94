package power

import (
	"math"
	"testing"

	"repro/internal/equiv"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/sop"
)

func TestComputeProbabilities(t *testing.T) {
	nw := network.New("t")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	and := nw.MustAddNode("and", sop.MustParseExpr(nw.Names, "a*b"))
	or := nw.MustAddNode("or", sop.MustParseExpr(nw.Names, "a + b"))
	inv := nw.MustAddNode("inv", sop.MustParseExpr(nw.Names, "a'"))
	nw.AddOutput("and")
	nw.AddOutput("or")
	nw.AddOutput("inv")
	act, err := Compute(nw, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	close := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
	if !close(act.P[a], 0.5) || !close(act.P[b], 0.5) {
		t.Fatal("input probabilities wrong")
	}
	if !close(act.P[and], 0.25) {
		t.Fatalf("P(and) = %f want 0.25", act.P[and])
	}
	if !close(act.P[or], 0.75) {
		t.Fatalf("P(or) = %f want 0.75", act.P[or])
	}
	if !close(act.P[inv], 0.5) {
		t.Fatalf("P(inv) = %f want 0.5", act.P[inv])
	}
	// Activity 2p(1-p): and/or have 2*0.25*0.75 = 0.375.
	if !close(act.A[and], 0.375) || !close(act.A[or], 0.375) {
		t.Fatalf("activities: and %f or %f", act.A[and], act.A[or])
	}
}

func TestComputeBiasedInputs(t *testing.T) {
	nw := network.New("t")
	a := nw.AddInput("a")
	nw.MustAddNode("buf", sop.MustParseExpr(nw.Names, "a"))
	nw.AddOutput("buf")
	act, err := Compute(nw, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(act.A[a]-2*0.9*0.1) > 1e-9 {
		t.Fatalf("A(a) = %f", act.A[a])
	}
}

func TestCubeActivity(t *testing.T) {
	nw := network.PaperExample()
	act, err := Compute(nw, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Names.Lookup("a")
	b, _ := nw.Names.Lookup("b")
	c := sop.MustCube(sop.Pos(a), sop.Pos(b))
	want := act.A[a] + act.A[b]
	if math.Abs(act.CubeActivity(c)-want) > 1e-9 {
		t.Fatal("cube activity mismatch")
	}
}

func TestExtractReducesActivity(t *testing.T) {
	nw := network.PaperExample()
	ref := nw.Clone()
	res, err := Extract(nw, kernelOpts(), rect.Config{MaxCols: 5, MaxVisits: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Extracted == 0 {
		t.Fatal("nothing extracted")
	}
	if res.ActivityAfter >= res.ActivityBefore {
		t.Fatalf("activity did not improve: %f -> %f",
			res.ActivityBefore, res.ActivityAfter)
	}
	if res.LCAfter >= res.LCBefore {
		t.Fatalf("LC did not improve: %d -> %d", res.LCBefore, res.LCAfter)
	}
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkActivityCost(t *testing.T) {
	nw := network.PaperExample()
	act, _ := Compute(nw, 0.5)
	cost := NetworkActivityCost(nw, act)
	if cost <= 0 {
		t.Fatalf("cost = %f", cost)
	}
	// All inputs have activity 0.5; the 33 literals sum to at most
	// 33*0.5 and at least a positive floor.
	if cost > 33*0.5+1e-9 {
		t.Fatalf("cost %f exceeds literal bound", cost)
	}
}

func TestComputeCyclicFails(t *testing.T) {
	nw := network.New("cyc")
	nw.AddInput("a")
	x := nw.Names.Intern("x")
	y := nw.Names.Intern("y")
	_ = x
	nw.MustAddNode("x", sop.NewExpr(sop.Cube{sop.Pos(y)}))
	nw.MustAddNode("y", sop.MustParseExpr(nw.Names, "x"))
	if _, err := Compute(nw, 0.5); err == nil {
		t.Fatal("cycle must fail")
	}
}

func kernelOpts() kernels.Options { return kernels.Options{} }
