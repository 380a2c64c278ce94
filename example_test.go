package repro_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
)

// Example is the library tour of README.md: factor a benchmark circuit
// sequentially and with the L-shaped algorithm on six virtual
// processors, then report the L-shaped literal count and its
// virtual-time speedup.
func Example() {
	ctx := context.Background()
	nw, _ := gen.Benchmark("dalu") // or blif.Read / eqn.Read / network.New
	base := core.Sequential(ctx, nw.CloneDetached(), core.Options{})
	res := core.LShaped(ctx, nw, 6, core.Options{})
	fmt.Println(res.LC, core.Speedup(base, res))
}
