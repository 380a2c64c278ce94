package core

import (
	"context"
	"testing"

	"repro/internal/equiv"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rect"
)

func ablOpt() Options {
	return Options{Options: extract.Options{Rect: rect.Config{MaxCols: 4, MaxVisits: 20000}, BatchK: 16}}
}

func TestAblationZeroCostCheckStaysEquivalent(t *testing.T) {
	// Disabling the §5.3 re-check costs quality but never
	// correctness: the added-back cubes are absorbed cubes.
	opt := ablOpt()
	opt.DisableZeroCostCheck = true
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	ref := nw.Clone()
	res := LShaped(context.Background(), nw, 3, opt)
	if err := equiv.Check(ref, nw, equiv.Options{
		ExhaustiveLimit: 0, RandomVectors: 256, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	// And the check enabled is no worse.
	nw2, _ := gen.Benchmark("misex3")
	res2 := LShaped(context.Background(), nw2, 3, ablOpt())
	if res2.LC > res.LC+res.LC/20 {
		t.Fatalf("enabled check much worse: %d vs %d", res2.LC, res.LC)
	}
}

func TestAblationOwnerCheckStaysEquivalent(t *testing.T) {
	opt := ablOpt()
	opt.DisableOwnerCheck = true
	nw := network.PaperExample()
	ref := nw.Clone()
	LShaped(context.Background(), nw, 2, opt)
	if err := equiv.Check(ref, nw, equiv.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestLShapedOnGeneratedCircuit(t *testing.T) {
	// End-to-end on a real (generated) circuit with random-vector
	// equivalence: the full §5 machinery including forwarding.
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	ref := nw.Clone()
	seqNet := nw.Clone()
	seq := Sequential(context.Background(), seqNet, ablOpt())
	res := LShaped(context.Background(), nw, 4, ablOpt())
	if err := equiv.Check(ref, nw, equiv.Options{
		ExhaustiveLimit: 0, RandomVectors: 512, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	// Quality within a few percent of sequential.
	if float64(res.LC) > float64(seq.LC)*1.08 {
		t.Fatalf("lshaped LC %d vs sequential %d", res.LC, seq.LC)
	}
	if res.VirtualTime >= seq.VirtualTime {
		t.Fatalf("no virtual speedup: %d vs %d", res.VirtualTime, seq.VirtualTime)
	}
}

func TestPartitionedOnGeneratedCircuit(t *testing.T) {
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	ref := nw.Clone()
	res := Partitioned(context.Background(), nw, 4, ablOpt())
	if err := equiv.Check(ref, nw, equiv.Options{
		ExhaustiveLimit: 0, RandomVectors: 512, Seed: 13,
	}); err != nil {
		t.Fatal(err)
	}
	if res.LC >= ref.Literals() {
		t.Fatal("no factorization happened")
	}
}

func TestReplicatedOnGeneratedCircuit(t *testing.T) {
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	opt := ablOpt()
	opt.BatchK = 1
	opt.Rect.MaxVisits = 4000
	ref := nw.Clone()
	res := Replicated(context.Background(), nw, 3, opt)
	if err := equiv.Check(ref, nw, equiv.Options{
		ExhaustiveLimit: 0, RandomVectors: 512, Seed: 17,
	}); err != nil {
		t.Fatal(err)
	}
	if res.LC >= ref.Literals() {
		t.Fatal("no factorization happened")
	}
	if res.Barriers == 0 {
		t.Fatal("lockstep must use barriers")
	}
}

func TestCloneDetachedIndependentNames(t *testing.T) {
	nw := network.PaperExample()
	cp := nw.CloneDetached()
	v1 := nw.NewNodeVar(nw.Node(nw.NodeVars()[0]).Fn)
	v2 := cp.NewNodeVar(cp.Node(cp.NodeVars()[0]).Fn)
	// Identical deterministic allocation on both copies.
	if v1 != v2 {
		t.Fatalf("detached clones diverged: %d vs %d", v1, v2)
	}
	if nw.Names.Name(v1) != cp.Names.Name(v2) {
		t.Fatal("generated names differ")
	}
	// And interning in one must not affect the other.
	nw.Names.Intern("only-in-original")
	if _, ok := cp.Names.Lookup("only-in-original"); ok {
		t.Fatal("names table still shared")
	}
}
