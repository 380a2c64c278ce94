package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The benchmark runs from the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program
// in step: the same workloads and the same metrics with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	check := func(kind string, listed []benchMetric, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program has %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits)
}

// TestSmoke runs every workload at minimal size, untraced and traced,
// and asserts that each metric is emitted with its unit and that every
// output check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchFile(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: w.Name, seed: 1, seconds: 1, traced: traced, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestChecksCatchWrongOutputs runs tables-large with the partitioned
// driver put back. That driver returns networks not equivalent to their
// input on seq and spla (NOTES.md, "Known defect"), so the run must
// fail its checks: this shows that the output checks catch a wrong
// network. Once the driver is fixed this test fails; then make
// --partitioned the default and delete the test.
func TestChecksCatchWrongOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full tables-large warm-up")
	}
	res, err := run(config{workload: "tables-large", seed: 1, seconds: 1, partitioned: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want the partitioned outputs of seq and spla to fail their checks", res.Correct, res.Failed)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
