package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blif"
	"repro/internal/equiv"
	"repro/internal/network"
)

// equivVectors is the random-vector count of every equivalence check
// the benchmark makes. All benchmark circuits have 48 to 252 inputs,
// so equiv.Check always simulates random vectors; one vector costs
// about 5 ms on spla (the largest circuit) on a 2-CPU Xeon host, and
// 64 keeps the checks of one tables-large run near a second. Outputs
// of deterministic drivers are additionally compared exactly.
const equivVectors = 64

// blifText serializes a network.
func blifText(nw *network.Network) string {
	var b strings.Builder
	if err := blif.Write(&b, nw); err != nil {
		panic(fmt.Sprintf("writing BLIF to memory: %v", err))
	}
	return b.String()
}

// canonicalBLIF re-reads and re-writes BLIF text until it stops
// changing, so texts that went through a different number of parse and
// write round trips (a result forwarded between cluster nodes) compare
// equal exactly when they describe the same network.
func canonicalBLIF(text string) (string, error) {
	for i := 0; i < 4; i++ {
		nw, err := blif.Read(strings.NewReader(text))
		if err != nil {
			return "", err
		}
		next := blifText(nw)
		if next == text {
			return text, nil
		}
		text = next
	}
	return text, nil
}

// checkEquiv compares out against in by simulation and records the
// outcome.
func (e *runEnv) checkEquiv(what string, in, out *network.Network, seed int64) {
	e.checked()
	if err := equiv.Check(in, out, equiv.Options{RandomVectors: equivVectors, Seed: seed}); err != nil {
		e.fail("%s: output not equivalent to input: %v", what, err)
	}
}

// checkSame requires two BLIF texts to describe the same network:
// equal as written, or equal once both are in canonical form.
func (e *runEnv) checkSame(what, want, got string) {
	e.checked()
	if want == got {
		return
	}
	cw, errW := canonicalBLIF(want)
	cg, errG := canonicalBLIF(got)
	if errW != nil || errG != nil || cw != cg {
		e.fail("%s: output differs from the reference output", what)
	}
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and waits for all.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
