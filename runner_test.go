package atlarge

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fastIDs is the cheap subset used where full sweeps would dominate test
// wall-clock; the full-catalog parity check lives in TestRunnerParityFull.
var fastIDs = []string{"fig1", "fig3", "fig7", "fig9", "tab5", "tab7", "bdc"}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, "fig1", 0) != DeriveSeed(42, "fig1", 0) {
		t.Error("DeriveSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, id := range canonicalIDs {
		for rep := 0; rep < 3; rep++ {
			s := DeriveSeed(42, id, rep)
			key := fmt.Sprintf("%s/%d", id, rep)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: %s and %s both -> %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	if DeriveSeed(1, "fig1", 0) == DeriveSeed(2, "fig1", 0) {
		t.Error("base seed does not influence derived seed")
	}
}

// TestRunnerParityFast: parallel output must be byte-identical to sequential
// for a fixed seed.
func TestRunnerParityFast(t *testing.T) {
	seq, err := (&Runner{Parallelism: 1}).Run(fastIDs, 42)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Runner{Parallelism: 8}).Run(fastIDs, 42)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, seq, par)
}

// TestRunnerParityFull runs every experiment except the tagged-slow tab9
// sweep both ways (tab9's own worker-count determinism is covered in
// internal/portfolio); skipped in -short.
func TestRunnerParityFull(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog parity sweep is slow")
	}
	var ids []string
	for _, e := range DefaultRegistry().Experiments() {
		if !slices.Contains(e.Tags, "slow") {
			ids = append(ids, e.ID)
		}
	}
	seq, err := (&Runner{Parallelism: 1, Replicas: 2}).Run(ids, 42)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Runner{Parallelism: 4, Replicas: 2}).Run(ids, 42)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, seq, par)
}

func assertSameResults(t *testing.T, seq, par []Result) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID || seq[i].Seed != par[i].Seed {
			t.Errorf("result %d identity differs: %s/%d vs %s/%d",
				i, seq[i].ID, seq[i].Seed, par[i].ID, par[i].Seed)
		}
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Errorf("%s: parallel report differs from sequential", seq[i].ID)
		}
		if !reflect.DeepEqual(seq[i].Aggregate, par[i].Aggregate) {
			t.Errorf("%s: parallel aggregate differs from sequential", seq[i].ID)
		}
	}
}

func TestRunnerReplicas(t *testing.T) {
	res, err := (&Runner{Parallelism: 4, Replicas: 4}).Run([]string{"fig7"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if len(r.Reports) != 4 {
		t.Fatalf("replicas = %d, want 4", len(r.Reports))
	}
	if r.Report != r.Reports[0] {
		t.Error("Report must be replica 0")
	}
	// Each Result's Reports window is capacity-capped, so appending to one
	// can never overwrite a neighbouring experiment's replica slots.
	if cap(r.Reports) != len(r.Reports) {
		t.Errorf("Reports cap = %d, want %d (full slice expression)", cap(r.Reports), len(r.Reports))
	}
	if r.Aggregate == nil {
		t.Fatal("no aggregate document")
	}
	if len(r.Aggregate.Metrics) != len(r.Report.Metrics) {
		t.Fatalf("aggregate metrics = %d, want %d", len(r.Aggregate.Metrics), len(r.Report.Metrics))
	}
	// Replicas run distinct seeds, so at least one value varies and carries
	// a CI half-width; the text rendering shows it as mean±hw.
	varied := false
	for _, m := range r.Aggregate.Metrics {
		if m.CI95 != 0 {
			varied = true
		}
	}
	for _, tb := range r.Aggregate.Tables {
		for _, row := range tb.Rows {
			for _, c := range row {
				if c.CI95 != nil {
					varied = true
				}
			}
		}
	}
	if !varied {
		t.Error("aggregate shows no replica variation")
	}
	if joined := strings.Join(r.Aggregate.Lines(), "\n"); !strings.Contains(joined, "±") {
		t.Errorf("aggregate text shows no ±:\n%s", joined)
	}
}

func TestRunnerSingleReplicaNoAggregate(t *testing.T) {
	res, err := (&Runner{}).Run([]string{"fig9"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Aggregate != nil {
		t.Error("single replica must not aggregate")
	}
	if len(res[0].Reports) != 1 || res[0].Report == nil {
		t.Errorf("unexpected result shape: %+v", res[0])
	}
}

func TestRunnerExperimentFailure(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Experiment{ID: "ok", Order: 1, Run: func(_ context.Context, seed int64) (*Report, error) {
		rep := NewReport("ok", "ok")
		rep.AddMetric(Metric{Name: "x", Value: 1})
		return rep, nil
	}})
	reg.MustRegister(Experiment{ID: "boom", Order: 2, Run: func(_ context.Context, seed int64) (*Report, error) {
		return nil, fmt.Errorf("kaput")
	}})
	res, err := (&Runner{Registry: reg}).RunAll(1)
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("joined error = %v, want to contain kaput", err)
	}
	if res[0].Err != nil || res[0].Report == nil {
		t.Errorf("healthy experiment damaged: %+v", res[0])
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "boom") {
		t.Errorf("failure not attributed: %+v", res[1])
	}
}

// TestPublicRunAllFastSubset covers the package-level RunAll wrapper through
// a fast registry; the full default catalog sweep already runs once in
// TestRunAllExperiments and again in the benchmark smoke.
func TestPublicRunAllFastSubset(t *testing.T) {
	results, err := (&Runner{}).Run(fastIDs, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(fastIDs) {
		t.Fatalf("results = %d, want %d", len(results), len(fastIDs))
	}
	for _, res := range results {
		if res.Err != nil || res.Report == nil || len(res.Report.Metrics) == 0 {
			t.Errorf("experiment %s unhealthy or metric-less: err=%v", res.ID, res.Err)
		}
	}
}

// BenchmarkRunAllParallel measures the full catalog through the pooled
// runner, the path CI's bench smoke exercises.
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAll(42); err != nil {
			b.Fatal(err)
		}
	}
}
