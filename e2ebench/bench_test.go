package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the generator process that
// serve-mixed starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(genRoleEnv) == "gen" {
		os.Exit(genMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// Small inputs for the smoke runs: the same generators as the full
// workloads, scaled down to run in well under a second per round.
var (
	smallChurn  = churnSpec{nodes: 300, maxNodes: 320, sources: 40, batches: 20, batchSize: 24}
	smallReplay = replaySpec{scale: 0.1, sources: 40}
	smallServe  = serveSpec{
		graph: churnSpec{nodes: 300, maxNodes: 320, sources: 40, batchSize: 8},
		rate:  200, writeEvery: 10, rightEvery: 18, warmup: 100 * time.Millisecond, round: 250 * time.Millisecond,
	}
)

func smallChurnInput(seed int64) (*ingestInput, error) {
	return churnInput("ingest-churn", smallChurn, seed)
}
func smallReplayInput(seed int64) (*ingestInput, error) { return replayInput(smallReplay, seed) }

// TestMirrorMatchesFacade pins the mirror pipeline to the facade bit for
// bit on a short churn stream and a short snapshot replay, so a change
// to the facade's batch pipeline that the mirror does not follow fails
// here instead of silently skewing the per-layer ledger.
func TestMirrorMatchesFacade(t *testing.T) {
	ctx := context.Background()
	for name, mk := range map[string]func(int64) (*ingestInput, error){
		"churn": smallChurnInput, "replay": smallReplayInput,
	} {
		in, err := mk(7)
		if err != nil {
			t.Fatal(err)
		}
		f, err := facadeRound(ctx, in, false)
		if err != nil {
			t.Fatalf("%s facade: %v", name, err)
		}
		m, err := runMirror(ctx, in, &tracer{origin: time.Now()})
		if err != nil {
			t.Fatalf("%s mirror: %v", name, err)
		}
		if err := sameBits(m.embedding(), f.embedding); err != nil {
			t.Errorf("%s: mirror embedding differs from the facade's: %v", name, err)
		}
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return s
	}
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{100, 50, 50},    // plenty beyond: the nearest rank itself
		{100, 90, 90},    // exactly ten beyond
		{100, 99, 90},    // one beyond: falls back to ten beyond
		{2000, 99, 1980}, // twenty beyond
		{30, 90, 20},     // ten beyond the 20th of 30
		{15, 90, 8},      // ten beyond only below the median: the median
		{8, 99, 4},       // no percentile has ten beyond: the median
	} {
		got := percentile(seq(c.n), c.p)
		if got.Value != c.want || got.N != c.n {
			t.Errorf("p%g of 1..%d = %v (n=%d), want %v", c.p, c.n, got.Value, got.N, c.want)
		}
	}
}

// TestSmokeEveryWorkload runs every workload on small inputs, untraced
// and traced, through the same reporting path as the command.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	runs := map[string]workload{
		"ingest-churn":    func(ctx context.Context, o options) (*result, error) { return runIngest(ctx, smallChurnInput, o) },
		"snapshot-replay": func(ctx context.Context, o options) (*result, error) { return runIngest(ctx, smallReplayInput, o) },
		"serve-mixed":     func(ctx context.Context, o options) (*result, error) { return runServe(ctx, smallServe, o) },
	}
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			o := options{seed: 3, seconds: 0.5, trace: trace, workDir: t.TempDir()}
			res, err := run(ctx, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var stdout, stderr bytes.Buffer
			if err := report(&stdout, &stderr, name, res, trace); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, stderr.String())
			}
			var out struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metricJSON
			}
			if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", name, trace, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s trace=%v: result %+v", name, trace, out)
			}
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the names the command
// prints in step with BENCHMARK.json at the repository root.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.json {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s in BENCHMARK.json:\n%v\ncommand prints:\n%v", c.kind, got, want)
		}
	}
}
