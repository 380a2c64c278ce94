// Lowpower demonstrates the paper's concluding extension: driving the
// rectangle cover with switching-activity weights instead of literal
// counts, so kernel extraction minimizes estimated switched
// capacitance. It compares area-driven and power-driven extraction on
// the same generated circuit.
package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/power"
	"repro/internal/rect"
)

func main() {
	rc := rect.Config{MaxCols: 5, MaxVisits: 50000}

	// Area-driven extraction (the paper's objective).
	areaNet, err := gen.Benchmark("misex3")
	if err != nil {
		panic(err)
	}
	act0, _ := power.Compute(areaNet, 0.5)
	costBefore := power.NetworkActivityCost(areaNet, act0)
	lcBefore := areaNet.Literals()
	core.Sequential(context.Background(), areaNet, core.Options{Options: extract.Options{Rect: rc, BatchK: 16}})
	actA, _ := power.Compute(areaNet, 0.5)
	fmt.Printf("area-driven:  LC %5d -> %5d, activity cost %.1f -> %.1f\n",
		lcBefore, areaNet.Literals(), costBefore,
		power.NetworkActivityCost(areaNet, actA))

	// Power-driven extraction: same engine, activity-weighted
	// rectangle values.
	powNet, _ := gen.Benchmark("misex3")
	res, err := power.Extract(powNet, kernels.Options{}, rc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("power-driven: LC %5d -> %5d, activity cost %.1f -> %.1f (%d kernels)\n",
		res.LCBefore, res.LCAfter, res.ActivityBefore, res.ActivityAfter, res.Extracted)

	fmt.Println("\nBoth runs use the same rectangular-cover engine; only the Valuer")
	fmt.Println("differs — exactly the generality the paper's conclusion claims.")
	fmt.Println("With uniform input probabilities the two objectives are strongly")
	fmt.Println("correlated, so the results are close; skewed signal statistics")
	fmt.Println("separate them further.")
}
