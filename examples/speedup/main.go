// Speedup compares the paper's three parallel algorithms on one
// generated benchmark across processor counts, and checks the
// L-shaped measurements against the Equation 3 analytic model with
// sparsity factors measured from the actual matrices.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/rect"
	"repro/internal/tables"
)

func main() {
	bench := flag.String("bench", "dalu", "benchmark name")
	flag.Parse()

	opt := core.Options{Options: extract.Options{
		Rect:   rect.Config{MaxCols: 5, MaxVisits: 100000},
		BatchK: 16,
	}}
	nw, err := gen.Benchmark(*bench)
	if err != nil {
		panic(err)
	}
	initial := nw.Literals()
	base := core.Sequential(context.Background(), nw, opt)
	fmt.Printf("%s: initial LC %d; sequential LC %d, virtual time %d\n\n",
		*bench, initial, base.LC, base.VirtualTime)

	fmt.Printf("%4s | %22s | %22s | %22s\n", "p",
		"replicated  LC      S", "partitioned LC      S", "lshaped     LC      S")
	replOpt := opt
	replOpt.BatchK = 1
	replOpt.Rect.MaxVisits = 20000
	for _, p := range []int{1, 2, 4, 6} {
		r1, _ := gen.Benchmark(*bench)
		repl := core.Replicated(context.Background(), r1, p, replOpt)
		r2, _ := gen.Benchmark(*bench)
		part := core.Partitioned(context.Background(), r2, p, opt)
		r3, _ := gen.Benchmark(*bench)
		lsh := core.LShaped(context.Background(), r3, p, opt)
		fmt.Printf("%4d | %14d %7.2f | %14d %7.2f | %14d %7.2f\n", p,
			repl.LC, core.Speedup(base, repl),
			part.LC, core.Speedup(base, part),
			lsh.LC, core.Speedup(base, lsh))
	}

	fmt.Println("\nEquation 3 model vs measured L-shaped speedup:")
	h := tables.New(tables.Config{Circuits: []string{*bench}, Procs: []int{2, 4, 6}, Opt: opt})
	tables.FprintModelTable(os.Stdout, *bench, h.SpeedupModelTable(*bench))
}
