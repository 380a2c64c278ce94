// Synthesisflow runs the full multi-pass synthesis script (sweep,
// simplify, cube extraction, kernel extraction, eliminate) on a
// generated dalu-class benchmark and prints the per-phase timing
// profile — the Table 1 experiment at example scale, showing that
// algebraic factorization dominates synthesis time.
package main

import (
	"fmt"

	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/rect"
	"repro/internal/script"
)

func main() {
	nw, err := gen.Benchmark("dalu")
	if err != nil {
		panic(err)
	}
	fmt.Println("circuit:", nw)

	res := script.Run(nw, script.Options{Options: extract.Options{
		Rect:   rect.Config{MaxCols: 5, MaxVisits: 100000},
		BatchK: 16,
	}})

	fmt.Printf("\nliteral count: %d -> %d (%.1f%% of initial)\n",
		res.InitialLC, res.FinalLC, 100*float64(res.FinalLC)/float64(res.InitialLC))
	fmt.Printf("passes: %d, factorization invoked %d times\n\n", res.Passes, res.FacInvocations)

	fmt.Printf("%-10s %12s %10s\n", "phase", "wall", "work")
	agg := map[string]script.PhaseTiming{}
	var order []string
	for _, ph := range res.Phases {
		a, ok := agg[ph.Name]
		if !ok {
			order = append(order, ph.Name)
		}
		a.Name = ph.Name
		a.Wall += ph.Wall
		a.Work += ph.Work
		agg[ph.Name] = a
	}
	for _, name := range order {
		a := agg[name]
		fmt.Printf("%-10s %12v %10d\n", a.Name, a.Wall.Round(1e5), a.Work)
	}
	fmt.Printf("\nfactorization share: %.1f%% of wall time\n",
		100*res.FacWall.Seconds()/res.TotalWall.Seconds())
	fmt.Println("(the paper's Table 1 measures 61.45% on its MCNC suite)")
}
