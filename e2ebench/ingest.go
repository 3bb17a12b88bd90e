package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/check"
	"github.com/tree-svd/treesvd/internal/dataset"
)

// ingestInput is one ingest workload's generated inputs: the initial
// graph (every round clones it), the subset, the event batches, the
// Zipf-drawn Recommend source read after each batch, and the embedder
// configuration (Defaults with only MaxNodes set where the stream grows
// the graph).
type ingestInput struct {
	name    string
	g       *treesvd.Graph
	subset  []int32
	batches [][]treesvd.Event
	readSrc []int32
	cfg     treesvd.Config
}

// churnSpec shapes a dataset.GenerateChurn stream. The event mix is the
// one make bench-dynamic uses: self-loops (including sink transitions),
// deletes, duplicate inserts, missing deletes and node growth.
type churnSpec struct {
	nodes, maxNodes, sources, batches, batchSize int
}

// churnIngestSpec is the stream the default-regime profile in ROADMAP.md
// was measured on: 1.5k nodes growing to 1536, 40 sources, 160 batches
// of 48 events.
var churnIngestSpec = churnSpec{nodes: 1500, maxNodes: 1536, sources: 40, batches: 160, batchSize: 48}

// replaySpec shapes snapshot-replay: the Patent profile scaled by scale,
// with sources subset nodes sampled at the middle snapshot.
type replaySpec struct {
	scale   float64
	sources int
}

var replayIngestSpec = replaySpec{scale: 1, sources: 128}

func churnIngestInput(seed int64) (*ingestInput, error) {
	return churnInput("ingest-churn", churnIngestSpec, seed)
}

func replayIngestInput(seed int64) (*ingestInput, error) {
	return replayInput(replayIngestSpec, seed)
}

// churnInput draws the subset and generates the churn stream. Subset
// nodes are protected from losing their last out-edge, so PPR from them
// stays defined through the whole stream.
func churnInput(name string, spec churnSpec, seed int64) (*ingestInput, error) {
	rng := rand.New(rand.NewSource(seed))
	subset := make([]int32, 0, spec.sources)
	for _, v := range rng.Perm(spec.nodes)[:spec.sources] {
		subset = append(subset, int32(v))
	}
	sort.Slice(subset, func(a, b int) bool { return subset[a] < subset[b] })
	p := dataset.ChurnProfile{
		Nodes: spec.nodes, MaxNodes: spec.maxNodes, Degree: 5,
		Batches: spec.batches, BatchSize: spec.batchSize,
		SelfLoopFrac: 0.05, DeleteFrac: 0.2, DupFrac: 0.05, MissFrac: 0.05, GrowFrac: 0.02,
		BigBatch: -1, Protect: subset, Seed: seed,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g, batches := dataset.GenerateChurn(p)
	cfg := treesvd.Defaults()
	cfg.MaxNodes = spec.maxNodes
	return &ingestInput{name: name, g: g, subset: subset, batches: batches,
		readSrc: zipfSources(rng, subset, len(batches)), cfg: cfg}, nil
}

// replayInput builds the Patent-profile graph up to its middle snapshot,
// samples the subset there, and turns every later snapshot into one
// batch. The graph already holds every node id, so Defaults needs no
// MaxNodes.
func replayInput(spec replaySpec, seed int64) (*ingestInput, error) {
	p := dataset.ScaleProfile(dataset.Patent(), spec.scale)
	p.Seed = seed
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ds := dataset.Generate(p)
	mid := p.Snapshots / 2
	subset := ds.SampleSubset(mid, spec.sources, seed)
	var batches [][]treesvd.Event
	for t := mid + 1; t <= p.Snapshots; t++ {
		batches = append(batches, ds.Stream.SnapshotEvents(t))
	}
	rng := rand.New(rand.NewSource(seed))
	return &ingestInput{name: "snapshot-replay", g: ds.SnapshotGraph(mid), subset: subset, batches: batches,
		readSrc: zipfSources(rng, subset, len(batches)), cfg: treesvd.Defaults()}, nil
}

// zipfSources draws n read sources from subset with Zipf(1.1) skew, the
// key skew cmd/loadgen uses.
func zipfSources(rng *rand.Rand, subset []int32, n int) []int32 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(subset)-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = subset[z.Uint64()]
	}
	return out
}

// round is one pass of the facade over the whole stream from a fresh
// New: set-up time, per-batch apply and read-after-apply times, and the
// end state.
type round struct {
	setup time.Duration
	// ms per batch: ApplyEvents, the Recommend after it, and the two
	// together (the time until the write shows up in a read).
	apply, read, write []float64
	events             int
	recon              float64
	fingerprint        uint64
	embedding          [][]float64
}

// facadeRound runs the stream through the public API: New, then per
// batch ApplyEvents followed, with reads, by one Recommend on the new
// snapshot.
func facadeRound(ctx context.Context, in *ingestInput, reads bool) (*round, error) {
	g := in.g.Clone()
	start := time.Now()
	e, err := treesvd.New(g, in.subset, in.cfg)
	if err != nil {
		return nil, fmt.Errorf("New: %w", err)
	}
	r := &round{setup: time.Since(start)}
	for i, b := range in.batches {
		t0 := time.Now()
		if _, err := e.ApplyEvents(ctx, b); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		t1 := time.Now()
		r.apply = append(r.apply, ms(t1.Sub(t0)))
		r.events += len(b)
		if !reads {
			continue
		}
		recs, err := e.Recommend(in.readSrc[i], 10)
		if err != nil {
			return nil, fmt.Errorf("recommend after batch %d: %w", i, err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("recommend after batch %d: no candidates", i)
		}
		r.read = append(r.read, ms(time.Since(t1)))
		r.write = append(r.write, ms(time.Since(t0)))
	}
	if err := e.Audit(); err != nil {
		return nil, fmt.Errorf("audit at end of stream: %w", err)
	}
	snap := e.Snapshot()
	r.embedding = snap.Embedding()
	r.fingerprint = check.Snapshot(r.embedding, snap.RightEmbedding(), snap.Spectrum())
	r.recon = e.ReconstructionError() / e.ProximityFrobNorm()
	return r, nil
}

// runIngest repeats whole rounds until the measuring time is used up
// (at least two, so the end state can be compared across rounds), and
// reports per-batch minima across rounds (see minAcross). The end-to-end
// run measures the facade alone and afterwards checks it against one
// untimed mirror pass; the traced run alternates a facade round and a
// traced mirror round.
func runIngest(ctx context.Context, mk func(int64) (*ingestInput, error), o options) (*result, error) {
	in, err := mk(o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceIngest(ctx, in, o)
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var rounds []*round
	for len(rounds) < 2 || time.Now().Before(deadline) {
		// Start every round from the same heap state, so the round's
		// garbage does not carry into the next one's peak. The freed
		// pages stay mapped: returning them to the system would make
		// every round pay the page faults of a cold heap again.
		runtime.GC()
		r, err := facadeRound(ctx, in, true)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := checkRounds(in, rounds, o); err != nil {
		return nil, err
	}
	m, err := runMirror(ctx, in, nil)
	if err != nil {
		return nil, err
	}
	if err := sameBits(m.embedding(), rounds[0].embedding); err != nil {
		return nil, fmt.Errorf("mirror pipeline diverged from the facade: %w", err)
	}

	res := newResult()
	var setups []float64
	applies, reads, writes := make([][]float64, len(rounds)), make([][]float64, len(rounds)), make([][]float64, len(rounds))
	for i, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		applies[i], reads[i], writes[i] = r.apply, r.read, r.write
		res.attempted += 2 * len(r.apply)
	}
	apply, read, write := minAcross(applies), minAcross(reads), minAcross(writes)
	res.set("setup_s", median(setups))
	res.note("setup_s: median of %d rounds", len(setups))
	res.note("latencies: per-batch minimum over %d rounds", len(rounds))
	res.setTail("apply_p50_ms", apply, 50)
	res.setTail("apply_p90_ms", apply, 90)
	res.set("ingest_events_per_s", float64(rounds[0].events)/(sum(apply)/1e3))
	res.set("recon_rel_err", rounds[0].recon)
	res.setTail("read_p50_ms", read, 50)
	res.setTail("read_p99_ms", read, 99)
	res.setTail("write_p50_ms", write, 50)
	res.setTail("write_p90_ms", write, 90)
	res.set("peak_rss_mb", rss)
	return res, nil
}

// checkRounds verifies that every round ended in the same state, and
// that the state matches the one earlier runs of this seed recorded.
func checkRounds(in *ingestInput, rounds []*round, o options) error {
	for i, r := range rounds[1:] {
		if r.fingerprint != rounds[0].fingerprint {
			return fmt.Errorf("round %d ended in a different snapshot than round 0 (fingerprint %x vs %x)",
				i+1, r.fingerprint, rounds[0].fingerprint)
		}
		// The error norms sum over map-ordered sparse rows, so they
		// repeat only up to rounding.
		if math.Abs(r.recon-rounds[0].recon) > 1e-9*rounds[0].recon {
			return fmt.Errorf("round %d ended with relative reconstruction error %v, round 0 with %v",
				i+1, r.recon, rounds[0].recon)
		}
	}
	return checkFingerprint(o.workDir, in.name, o.seed, rounds[0].fingerprint)
}

// checkFingerprint compares fp with the fingerprint an earlier run of
// the same binary, workload and seed recorded, recording it if none did.
func checkFingerprint(dir, name string, seed int64, fp uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	path := filepath.Join(dir, "fingerprints", fmt.Sprintf("%x-%s-%d", h.Sum(nil)[:8], name, seed))
	want := fmt.Sprintf("%016x", fp)
	got, err := os.ReadFile(path)
	switch {
	case err == nil && string(got) != want:
		return fmt.Errorf("final snapshot fingerprint %s differs from %s recorded by an earlier run of seed %d",
			want, got, seed)
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(want), 0o644)
	}
	return err
}

// sameBits reports the first element where two matrices differ in their
// exact float64 bit patterns.
func sameBits(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("element (%d,%d): %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
