// Command e2ebench is the repository's end-to-end benchmark. One command
// runs one named workload at treesvd.Defaults(), checks the program's
// outputs, and prints every metric by name and unit; the last line of
// standard output is one JSON object
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (timed with no
// tracing in the measured path); with --trace 1 they are the per-layer
// ledger of a separate traced run. A failed output check exits non-zero
// without printing a result. Run it from the repository root through
// run.sh, which builds it from source:
//
//	bash e2ebench/run.sh --workload ingest-churn --seed 1 --seconds 20 --trace 0
//
// Workloads (each generated from --seed; the program under test receives
// only the generated graph, subset and events). Defaults() leaves Workers
// at 0, which every layer runs as a single worker:
//
//   - ingest-churn: closed-loop Embedder.ApplyEvents over 48-event churn
//     batches on a 1.5k-node graph with 40 sources. The snapshot freeze,
//     push and proximity refresh do almost all the work, the
//     factorization almost none. BENCHMARK.json leaves it out: its ~12 ms
//     batches are too long to slip between bursts of interference from
//     other tenants of a shared machine and too short to average them
//     out, so its tail latencies spread past the 25% bound from run to
//     run. serve-mixed's writes exercise the same freeze.
//   - snapshot-replay: a Patent-profile graph built to its middle
//     snapshot with 128 sampled sources; every later snapshot is one
//     ApplyEvents batch (the paper's Exp. 3). Many blocks violate Eqn. 2
//     per batch, so factorization and push dominate and the freeze is
//     small.
//   - serve-mixed: an HTTP server in front of a DurableEmbedder on a
//     4k-node churn graph with 64 sources, driven open-loop at 200
//     req/s by a separate generator process over loopback: 8-event
//     write batches every 50 ms on one connection, and on another a
//     Poisson stream of reads (Zipf-skewed Recommend, a small share of
//     RightEmbeddingRow). Read latency shows ingest interference; write
//     latency shows the durable apply path.
//
// The ingest workloads also read once per batch: one Recommend on the
// freshly published snapshot, which pays the lazy right embedding, so
// work moved from the freeze into reads shows up in read latency.
//
// The per-layer ledger of the ingest workloads comes from a mirror
// pipeline in this package that calls the same internal layers in the
// facade's order (mirror.go); its final embedding must equal the
// facade's bit for bit, so drift in the facade breaks the benchmark.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"apply_p50_ms", "ms"},
	{"apply_p90_ms", "ms"},
	{"ingest_events_per_s", "events/s"},
	{"recon_rel_err", "ratio"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of the traced run (--trace 1). A workload
// that does not exercise a layer reports it as 0. Timings are mean
// milliseconds per ingest batch (per request for the server.* read
// timings, per pass or round for runtime.gc_pause_ms, p99 for
// gen.late_ms), counts are totals per pass over the workload's stream.
var perLayer = []metricDef{
	{"facade.batch_ms", "ms"},
	{"batch_ms", "ms"},
	{"graph.apply_ms", "ms"},
	{"graph.effective_frac", "ratio"},
	{"ppr.repair_ms", "ms"},
	{"ppr.pushes", "count"},
	{"ppr.adjusts", "count"},
	{"proximity.refresh_ms", "ms"},
	{"proximity.nnz", "count"},
	{"core.update_ms", "ms"},
	{"core.blocks_rebuilt", "count"},
	{"core.blocks_skipped", "count"},
	{"core.blocks_updated", "count"},
	{"core.update_hit_rate", "ratio"},
	{"core.block_factor_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"snapshot.freeze_ms", "ms"},
	{"runtime.alloc_mb_per_batch", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"server.ingest_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.checkpoint_ms", "ms"},
	{"server.recommend_ms", "ms"},
	{"server.right_ms", "ms"},
	{"server.shed", "count"},
	{"transport_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_events_per_s", "events/s"},
}

// options is one invocation of a workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir holds everything a run writes: WAL directories, span files
	// and the fingerprints that must repeat across runs of one seed.
	workDir string
}

// result is what a workload measured. notes carry sample counts and
// the percentile each tail metric actually used; they go to stderr.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setTail records a percentile metric together with its sample count.
func (r *result) setTail(name string, samples []float64, p float64) {
	t := percentile(samples, p)
	r.set(name, t.Value)
	r.note("%s: p%.1f of n=%d", name, t.Pct, t.N)
}

// workload runs one named workload.
type workload func(ctx context.Context, o options) (*result, error)

var workloads = map[string]workload{
	"ingest-churn":    func(ctx context.Context, o options) (*result, error) { return runIngest(ctx, churnIngestInput, o) },
	"snapshot-replay": func(ctx context.Context, o options) (*result, error) { return runIngest(ctx, replayIngestInput, o) },
	"serve-mixed":     func(ctx context.Context, o options) (*result, error) { return runServe(ctx, defaultServeSpec, o) },
}

// genRoleEnv marks the generator child process of serve-mixed.
const genRoleEnv = "E2EBENCH_ROLE"

func main() {
	if os.Getenv(genRoleEnv) == "gen" {
		os.Exit(genMain(os.Stdin, os.Stdout))
	}
	name := flag.String("workload", "", "workload to run: ingest-churn, snapshot-replay or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: ".bench_build"}
	// Whatever still runs past the measuring time plus set-up and checks
	// is stuck; give up well inside three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+100*time.Second)
	defer cancel()
	res, err := w(ctx, o)
	if err == nil {
		res.note("provenance: nproc=%d GOMAXPROCS=%d %s seed=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed)
		err = report(os.Stdout, os.Stderr, *name, res, o.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", *name, *seed, err)
		cancel()
		os.Exit(1)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table to stderr and the result JSON as
// the last line of stdout. The end-to-end run must report every
// end-to-end metric, non-zero; the traced run reports layers it did not
// exercise as 0.
func report(stdout, stderr io.Writer, name string, res *result, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metricJSON, len(defs))
	var idle []string
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		switch {
		case !trace && (!ok || v == 0):
			return fmt.Errorf("end-to-end metric %s not measured", d.name)
		case trace && !ok:
			idle = append(idle, d.name)
		}
		out[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(stderr, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	for n := range res.metrics {
		if _, ok := out[n]; !ok {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	res.note("failed_frac: %g (%d of %d operations failed or were shed)",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	sort.Strings(res.notes)
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "  "+n)
	}
	if len(idle) > 0 {
		fmt.Fprintf(stderr, "  not exercised by %s (reported as 0): %s\n", name, strings.Join(idle, ", "))
	}
	b, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
