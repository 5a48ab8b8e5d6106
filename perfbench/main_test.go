package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"elephants/internal/tpch"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallSF keeps each smoke run to a few seconds; dist-scatter runs at
// the golden dataset so its answers are checked against the snapshot.
var smallSF = map[string]float64{"olap-rcf": 0.002, "htap-mixed": 0.002, "dist-scatter": 0.005}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each answers correctly and prints exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, report, err := run(config{
					workload: w.Name, dataSeed: 1, schedSeed: 1, seconds: 0.3, trace: trace,
					root: "..", scratch: t.TempDir(), sf: smallSF[w.Name], setups: 1, reopens: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, report["failures"])
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				if trace {
					for _, name := range exercised[w.Name] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s exercises %s, but it reads %v", w.Name, name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// exercised lists per-layer metrics each workload must move off zero.
var exercised = map[string][]string{
	"olap-rcf": {
		"relal.self_ms_per_query", "relal.join_rows_per_query", "rcfile.scan_ms_per_query",
		"rcfile.bytes_read_per_query", "rcfile.cache_used_bytes", "go.alloc_mb_per_query",
		"trace.query_coverage_frac",
	},
	"htap-mixed": {
		"htap.scan_ms_per_query", "htap.lag_max_records", "htap.frames_replayed",
		"commit_p50_ms", "write_ops_s", "recovery_ms", "stored_bytes_per_user_byte",
		"delta.records_per_flush", "docstore.bson_bytes_per_write",
		"fault.fsyncs_per_write", "fault.fsync_ms_p50", "trace.write_coverage_frac",
	},
	"dist-scatter": {
		"dist.scatter_ms_per_query", "dist.requests_per_query", "dist.rows_shipped_per_query",
		"dist.wire_bytes_per_query", "dist.shard_service_ms_per_query", "dist.transfer_ms_per_query",
		"dist.decode_merge_ms_per_query",
	},
}

// TestOracleMatchesGolden pins the oracle that checks every other
// dataset to the committed snapshot on the snapshot's own dataset.
func TestOracleMatchesGolden(t *testing.T) {
	want, err := golden("..")
	if err != nil {
		t.Fatal(err)
	}
	got := oracle(goldenSF, goldenSeed)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("Q%d: oracle differs from the golden snapshot", id)
		}
	}
}

// TestWrongAnswerCounts checks the gate itself: an answer that differs
// from the expected one is a failure.
func TestWrongAnswerCounts(t *testing.T) {
	db := tpch.Generate(tpch.GenConfig{SF: 0.002, Seed: 7, Random64: true})
	want := oracle(0.002, 7)
	if v := replay("right", localExec(db), want); v.failed != 0 || v.attempted != 22 {
		t.Fatalf("attempted %d failed %d: %v", v.attempted, v.failed, v.notes)
	}
	want[6] += "x"
	if v := replay("wrong", localExec(db), want); v.failed != 1 {
		t.Fatalf("failed %d, want 1", v.failed)
	}
}
