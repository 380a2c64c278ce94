// End-to-end integration tests: the full pipeline from circuit
// generation through partitioning, parallel factorization, file I/O
// and equivalence checking — everything a downstream user strings
// together.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/network"
	"repro/internal/rect"
	"repro/internal/script"
)

func intOpt() core.Options {
	return core.Options{Options: extract.Options{
		Rect:   rect.Config{MaxCols: 4, MaxVisits: 20000},
		BatchK: 16,
	}}
}

// TestPipelineAllAlgorithms runs every algorithm on the same
// generated circuit and verifies the paper's quality ordering and
// functional correctness end to end.
func TestPipelineAllAlgorithms(t *testing.T) {
	ref, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	eqOpt := equiv.Options{ExhaustiveLimit: 0, RandomVectors: 256, Seed: 42}

	seqNet := ref.CloneDetached()
	seq := core.Sequential(context.Background(), seqNet, intOpt())

	replOpt := intOpt()
	replOpt.BatchK = 1
	replOpt.Rect.MaxVisits = 4000
	replNet := ref.CloneDetached()
	repl := core.Replicated(context.Background(), replNet, 3, replOpt)

	partNet := ref.CloneDetached()
	part := core.Partitioned(context.Background(), partNet, 3, intOpt())

	lNet := ref.CloneDetached()
	lsh := core.LShaped(context.Background(), lNet, 3, intOpt())

	for name, nw := range map[string]*network.Network{
		"sequential": seqNet, "replicated": replNet,
		"partitioned": partNet, "lshaped": lNet,
	} {
		if err := equiv.Check(ref, nw, eqOpt); err != nil {
			t.Fatalf("%s broke the function: %v", name, err)
		}
	}

	// Quality ordering (paper Tables 2/3/6): sequential best;
	// L-shaped close; partitioned worst. Allow slack for the
	// concurrent search's nondeterminism.
	if seq.LC >= ref.Literals() {
		t.Fatal("sequential did not optimize")
	}
	if float64(lsh.LC) > float64(seq.LC)*1.10 {
		t.Fatalf("lshaped LC %d too far above sequential %d", lsh.LC, seq.LC)
	}
	if part.LC < seq.LC {
		t.Fatalf("partitioned LC %d beat sequential %d", part.LC, seq.LC)
	}
	if repl.DNF {
		t.Fatal("replicated should finish misex3")
	}
	// Speed ordering in virtual time: partitioned fastest.
	if part.VirtualTime >= seq.VirtualTime {
		t.Fatalf("partitioned vtime %d not below sequential %d",
			part.VirtualTime, seq.VirtualTime)
	}
	if lsh.VirtualTime >= seq.VirtualTime {
		t.Fatalf("lshaped vtime %d not below sequential %d",
			lsh.VirtualTime, seq.VirtualTime)
	}
}

// TestPipelineScriptAndIO: script the circuit, round-trip it through
// BLIF, and verify the reloaded network still checks out.
func TestPipelineScriptAndIO(t *testing.T) {
	nw, err := gen.Benchmark("misex3")
	if err != nil {
		t.Fatal(err)
	}
	ref := nw.Clone()
	res := script.Run(nw, script.Options{Options: intOpt().Options})
	if res.FinalLC >= res.InitialLC {
		t.Fatalf("script did not improve: %d -> %d", res.InitialLC, res.FinalLC)
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, nw); err != nil {
		t.Fatal(err)
	}
	back, err := blif.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eqOpt := equiv.Options{ExhaustiveLimit: 0, RandomVectors: 256, Seed: 7}
	if err := equiv.Check(ref, back, eqOpt); err != nil {
		t.Fatalf("scripted+round-tripped network not equivalent: %v", err)
	}
	if back.Literals() != nw.Literals() {
		t.Fatalf("LC changed through BLIF: %d vs %d", back.Literals(), nw.Literals())
	}
}

// TestDeterministicSequentialRuns: the sequential and replicated
// engines are deterministic end to end.
func TestDeterministicSequentialRuns(t *testing.T) {
	run := func() (int, int64) {
		nw, _ := gen.Benchmark("misex3")
		r := core.Sequential(context.Background(), nw, intOpt())
		return r.LC, r.VirtualTime
	}
	lc1, vt1 := run()
	lc2, vt2 := run()
	if lc1 != lc2 || vt1 != vt2 {
		t.Fatalf("sequential nondeterministic: (%d,%d) vs (%d,%d)", lc1, vt1, lc2, vt2)
	}
	runRepl := func() int {
		nw, _ := gen.Benchmark("misex3")
		opt := intOpt()
		opt.BatchK = 1
		opt.Rect.MaxVisits = 4000
		r := core.Replicated(context.Background(), nw, 3, opt)
		return r.LC
	}
	if runRepl() != runRepl() {
		t.Fatal("replicated nondeterministic in quality")
	}
}
