package kcm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// buildPaperPartition builds the Figure 2 setting: partition {F} on
// proc 1's patcher and {G,H} on proc 0's patcher (Example 5.1 order).
func buildPaperPartition(t *testing.T) (*network.Network, *Matrix, *Matrix) {
	t.Helper()
	ctx := context.Background()
	nw := network.PaperExample()
	F, _ := nw.Names.Lookup("F")
	G, _ := nw.Names.Lookup("G")
	H, _ := nw.Names.Lookup("H")
	m0 := NewPatcher(0, kernels.Options{}).Rebuild(ctx, nw, []sop.Var{G, H}, 1)
	m1 := NewPatcher(1, kernels.Options{}).Rebuild(ctx, nw, []sop.Var{F}, 1)
	return nw, m0, m1
}

func TestPaperMatrixShapes(t *testing.T) {
	_, m0, m1 := buildPaperPartition(t)
	// Figure 2 block for {G,H}: rows a,b,ce,f (G) + de (H) = 5;
	// columns a,b,c,ce,f = 5.
	if len(m0.Rows()) != 5 {
		t.Fatalf("proc0 rows = %d want 5", len(m0.Rows()))
	}
	if len(m0.Cols()) != 5 {
		t.Fatalf("proc0 cols = %d want 5", len(m0.Cols()))
	}
	// Block for {F}: rows a,b,de,f,c,g = 6; columns a,b,c,de,f,g = 6.
	if len(m1.Rows()) != 6 {
		t.Fatalf("proc1 rows = %d want 6", len(m1.Rows()))
	}
	if len(m1.Cols()) != 6 {
		t.Fatalf("proc1 cols = %d want 6", len(m1.Cols()))
	}
}

func TestOffsetLabeling(t *testing.T) {
	nw, m0, m1 := buildPaperPartition(t)
	for _, r := range m0.Rows() {
		if r.ID < 1 || r.ID >= Stride {
			t.Fatalf("proc0 row id %d outside [1,%d)", r.ID, Stride)
		}
	}
	for _, r := range m1.Rows() {
		if r.ID <= Stride || r.ID >= 2*Stride {
			t.Fatalf("proc1 row id %d outside (%d,%d)", r.ID, Stride, 2*Stride)
		}
	}
	// Paper §5.2: "the index of the first kernel in processor 2
	// will be 200001".
	G, _ := nw.Names.Lookup("G")
	m2 := NewPatcher(2, kernels.Options{}).Rebuild(context.Background(), nw, []sop.Var{G}, 1)
	if got := m2.Rows()[0].ID; got != 200001 {
		t.Fatalf("first row id on proc 2 = %d want 200001", got)
	}
	// Every label matches the node-at-a-time reference Builder on the
	// same processor.
	F, _ := nw.Names.Lookup("F")
	H, _ := nw.Names.Lookup("H")
	requireIdentical(t, referenceBuild(nw, []sop.Var{G, H}, 0, kernels.Options{}), m0)
	requireIdentical(t, referenceBuild(nw, []sop.Var{F}, 1, kernels.Options{}), m1)
	requireIdentical(t, referenceBuild(nw, []sop.Var{G}, 2, kernels.Options{}), m2)
}

func TestEntriesDenoteFunctionCubes(t *testing.T) {
	nw, m0, _ := buildPaperPartition(t)
	G, _ := nw.Names.Lookup("G")
	gfn := nw.Node(G).Fn
	for _, r := range m0.Rows() {
		if r.Node != G {
			continue
		}
		for _, e := range r.Entries {
			col := m0.Col(e.Col)
			fc, ok := r.CoKernel.Union(col.Cube)
			if !ok {
				t.Fatal("contradictory entry cube")
			}
			if !gfn.ContainsCube(fc) {
				t.Fatalf("entry denotes %s which is not a cube of G",
					fc.Format(nw.Names.Fmt()))
			}
			if e.Weight != fc.Weight() {
				t.Fatalf("weight %d want %d", e.Weight, fc.Weight())
			}
		}
	}
}

func TestSharedCubeIDs(t *testing.T) {
	// The cube af of G appears in row (G,a) col f and row (G,f)
	// col a — both entries must carry the same CubeID.
	nw, m0, _ := buildPaperPartition(t)
	names := nw.Names
	var ids []int64
	for _, r := range m0.Rows() {
		ck := r.CoKernel.Format(names.Fmt())
		if ck != "a" && ck != "f" {
			continue
		}
		for _, e := range r.Entries {
			col := m0.Col(e.Col)
			cc := col.Cube.Format(names.Fmt())
			if (ck == "a" && cc == "f") || (ck == "f" && cc == "a") {
				ids = append(ids, e.CubeID)
			}
		}
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("cube af ids = %v, want two equal ids", ids)
	}
}

func TestRowEntryLookup(t *testing.T) {
	_, m0, _ := buildPaperPartition(t)
	r := m0.Rows()[0]
	for _, e := range r.Entries {
		got, ok := r.Entry(e.Col)
		if !ok || got.CubeID != e.CubeID {
			t.Fatal("Entry lookup failed for present column")
		}
	}
	if _, ok := r.Entry(-1); ok {
		t.Fatal("Entry lookup succeeded for absent column")
	}
}

func TestSparsity(t *testing.T) {
	_, m0, _ := buildPaperPartition(t)
	s := m0.Sparsity()
	if s <= 0 || s > 1 {
		t.Fatalf("sparsity %f out of range", s)
	}
	want := float64(m0.NumEntries()) / float64(len(m0.Rows())*len(m0.Cols()))
	if s != want {
		t.Fatalf("sparsity %f want %f", s, want)
	}
	if NewMatrix().Sparsity() != 0 {
		t.Fatal("empty matrix sparsity must be 0")
	}
}

func TestBuildSequential(t *testing.T) {
	nw := network.PaperExample()
	m := Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	// All rows from Figure 2: 6 (F) + 4 (G) + 1 (H) = 11.
	if len(m.Rows()) != 11 {
		t.Fatalf("rows = %d want 11", len(m.Rows()))
	}
	if len(m.Cols()) != 7 {
		t.Fatalf("cols = %d want 7", len(m.Cols()))
	}
}

func TestDumpRendersAllRows(t *testing.T) {
	nw := network.PaperExample()
	m := Build(context.Background(), nw, nw.NodeVars(), kernels.Options{})
	d := m.Dump(nw.Names)
	if !strings.Contains(d, "F de") || !strings.Contains(d, "H d*e") && !strings.Contains(d, "H de") {
		// The dump labels rows "<node> <cokernel>"; co-kernel de
		// formats as d*e.
		if !strings.Contains(d, "d*e") {
			t.Fatalf("dump missing de rows:\n%s", d)
		}
	}
	lines := strings.Count(d, "\n")
	if lines != len(m.Rows())+2 {
		t.Fatalf("dump has %d lines want %d", lines, len(m.Rows())+2)
	}
}
