package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, seconds: 1, trace: trace, tiny: true, dir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d ops", workload, res.Attempted)
	}
	return res
}

// checkMetrics fails unless res carries exactly the named metrics, each
// with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, label string, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", label, len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, w.Name)
		case m.Unit == "" || m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestEveryMetricEmitted runs every workload in smoke mode, untraced and
// traced, and checks each emits every named metric with its unit — and
// that every workload BENCHMARK.json lists is one the program runs.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json lists %s: %v", w.Name, err)
		}
	}
	for _, w := range workloadNames() {
		checkMetrics(t, w+" untraced", tinyRun(t, w, 1, false), s.EndToEnd)
		checkMetrics(t, w+" traced", tinyRun(t, w, 1, true), s.PerLayer)
	}
}

// TestSeedChangesInputsNotMetricSet: another seed generates other
// fields but the same metric names.
func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	sc := scaleFor(true)
	a := genFields(sc.dims, sc.slabRows, seeds(1, 1, 1))[0]
	b := genFields(sc.dims, sc.slabRows, seeds(2, 1, 1))[0]
	again := genFields(sc.dims, sc.slabRows, seeds(1, 1, 1))[0]
	if bytes.Equal(a.raw, b.raw) {
		t.Fatal("seeds 1 and 2 generated the same field")
	}
	if !bytes.Equal(a.raw, again.raw) {
		t.Fatal("seed 1 generated two different fields")
	}
	r1, r2 := tinyRun(t, "ingest", 1, false), tinyRun(t, "ingest", 2, false)
	for k := range r1.Metrics {
		if _, ok := r2.Metrics[k]; !ok {
			t.Errorf("metric %s emitted for seed 1 but not seed 2", k)
		}
	}
	if len(r1.Metrics) != len(r2.Metrics) {
		t.Errorf("seed 1 emitted %d metrics, seed 2 %d", len(r1.Metrics), len(r2.Metrics))
	}
}

// TestSmoke runs every workload at the tiny scale and checks what must
// hold at any scale: ops complete, verification passes on the workloads
// whose outputs are all correct at this commit, and every reported
// error stays within the bound.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		res := tinyRun(t, w, 3, false)
		if e := res.Metrics["max_err_over_bound"].Value; e <= 0 || e > 1 {
			t.Errorf("%s: max_err_over_bound %v outside (0, 1]", w, e)
		}
		// hot_slabs reads both representations of a slab through one
		// router cache entry, and the cache key ignores Accept: its raw
		// reads of extent-warmed keys fail verification at this commit.
		if w != "hot_slabs" && !res.Correct {
			t.Errorf("%s: %d of %d ops failed verification", w, res.Failed, res.Attempted)
		}
	}
}
