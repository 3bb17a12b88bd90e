package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
	"github.com/tree-svd/treesvd/server"
)

// serveSpec shapes serve-mixed: the churn graph the server starts from,
// the offered load, and the length of the rounds (each with its own
// set-up) the measuring time is split into.
type serveSpec struct {
	graph churnSpec
	// rate is the offered load in requests per second, one in writeEvery
	// of them a write batch; every rightEvery-th read fetches one
	// right-embedding row instead of recommending.
	rate       float64
	writeEvery int
	rightEvery int
	warmup     time.Duration
	round      time.Duration
}

// defaultServeSpec: a 4k-node churn graph at 200 req/s, 10% writes of 8
// events, ~5% RightEmbeddingRow reads, rounds of 6 s measured after half
// a second of warm-up, so every round has over 1000 measured reads and
// read_p99_ms keeps ten samples beyond it. The subset has 64 sources: at
// Defaults() a write then takes ~12 ms on a 2-CPU machine, keeping the
// single writer connection about a quarter busy. With 128 sources a
// write takes ~30 ms, the writer runs 60% busy, and its queueing tail
// swings several-fold between identical runs.
var defaultServeSpec = serveSpec{
	graph:      churnSpec{nodes: 4000, maxNodes: 4096, sources: 64, batchSize: 8},
	rate:       200,
	writeEvery: 10,
	rightEvery: 18,
	warmup:     500 * time.Millisecond,
	round:      6 * time.Second,
}

// served is one set-up instance: a DurableEmbedder (zero DurableConfig:
// per-batch fsync, a checkpoint every 64 batches) behind server.New with
// zero Options, listening on loopback.
type served struct {
	dir    string
	d      *treesvd.DurableEmbedder
	ingest *timedIngest
	hs     *http.Server
	ln     net.Listener
	url    string
	calls  *handlerTimes // nil unless traced
	done   chan error
}

// timedIngest wraps the DurableEmbedder as the server's Ingestor and
// records the server-side duration of every acknowledged batch.
type timedIngest struct {
	d      *treesvd.DurableEmbedder
	mu     sync.Mutex
	durs   []float64 // ms
	events int
}

func (t *timedIngest) ApplyEvents(ctx context.Context, events []treesvd.Event) (int, error) {
	start := time.Now()
	n, err := t.d.ApplyEvents(ctx, events)
	if err == nil {
		d := ms(time.Since(start))
		t.mu.Lock()
		t.durs = append(t.durs, d)
		t.events += len(events)
		t.mu.Unlock()
	}
	return n, err
}

func (t *timedIngest) samples() ([]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs...), t.events
}

// handlerTimes is the traced run's timing middleware around the server's
// handler: handler time per request path, and the requests it shed.
type handlerTimes struct {
	mu     sync.Mutex
	byPath map[string][]float64 // ms
	shed   int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := ms(time.Since(start))
		h.mu.Lock()
		h.byPath[r.URL.Path] = append(h.byPath[r.URL.Path], d)
		if sw.code == http.StatusServiceUnavailable {
			h.shed++
		}
		h.mu.Unlock()
	})
}

// setUp creates the durable state in a fresh directory, starts serving
// it, and returns once /readyz answers 200.
func setUp(g *treesvd.Graph, subset []int32, cfg treesvd.Config, workDir string, trace bool) (*served, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	d, err := treesvd.Create(dir, g, subset, treesvd.DurableConfig{Config: cfg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("create durable embedder: %w", err)
	}
	s := &served{dir: dir, d: d, ingest: &timedIngest{d: d}, done: make(chan error, 1)}
	h := server.New(d.Embedder(), server.Options{Ingest: s.ingest}).Handler()
	if trace {
		s.calls = &handlerTimes{byPath: map[string][]float64{}}
		h = s.calls.wrap(h)
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + s.ln.Addr().String()
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(s.ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopServing drains the HTTP server and waits for its serve loop.
func (s *served) stopServing() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hs = nil
	return err
}

// close stops serving, closes the durable embedder and removes its
// directory, returning the first error.
func (s *served) close() error {
	err := s.stopServing()
	if s.ln != nil {
		s.ln.Close() // already closed by Shutdown unless serving never started
	}
	if cerr := s.d.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// writes is the number of write batches one pass of the schedule sends.
func (spec serveSpec) writes(seconds float64) int {
	total := spec.warmup + time.Duration(seconds*float64(time.Second))
	return int(total / spec.writeGap())
}

// writeGap is the time between two writes.
func (spec serveSpec) writeGap() time.Duration {
	return time.Duration(float64(spec.writeEvery) / spec.rate * float64(time.Second))
}

// schedule pre-draws the open-loop load. Writes go out on the writer
// connection every writeGap, each the next batch of the stream. Reads go
// out on the reader connection as a Poisson stream carrying the rest of
// the rate; every rightEvery-th of them reads RightEmbeddingRow on a
// random existing node, the others Recommend on a Zipf-drawn source.
// Random read arrivals land at every offset from the writes, so the read
// tail does not hinge on how a write's duration lines up with a fixed
// read grid, which changes with the seed. With a single CPU both streams
// share one connection.
func schedule(spec serveSpec, seconds float64, subset []int32, nodes int, rng *rand.Rand) [][]op {
	total := spec.warmup + time.Duration(seconds*float64(time.Second))
	var reads, writes []op
	for i := 0; i < spec.writes(seconds); i++ {
		due := time.Duration(i)*spec.writeGap() + spec.writeGap()/2
		writes = append(writes, op{Due: due, Kind: opWrite, Batch: i, Warm: due < spec.warmup})
	}
	readRate := spec.rate * float64(spec.writeEvery-1) / float64(spec.writeEvery)
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(subset)-1))
	for due := time.Duration(0); ; {
		due += time.Duration(rng.ExpFloat64() / readRate * float64(time.Second))
		if due >= total {
			break
		}
		o := op{Due: due, Kind: opRecommend, Node: subset[z.Uint64()], Warm: due < spec.warmup}
		if len(reads)%spec.rightEvery == spec.rightEvery-1 {
			o.Kind, o.Node = opRight, int32(rng.Intn(nodes))
		}
		reads = append(reads, o)
	}
	if runtime.NumCPU() < 2 {
		merged := append(reads, writes...)
		sort.Slice(merged, func(a, b int) bool { return merged[a].Due < merged[b].Due })
		return [][]op{merged}
	}
	return [][]op{reads, writes}
}

// runServe splits the measuring time into rounds (at least two) of a
// fresh set-up followed by one pass of the same schedule, checks each,
// and reports per-request minima across rounds (see minAcross).
func runServe(ctx context.Context, spec serveSpec, o options) (*result, error) {
	n := max(2, int(o.seconds/spec.round.Seconds()))
	window := o.seconds / float64(n)
	gspec := spec.graph
	gspec.batches = spec.writes(window)
	in, err := churnInput("serve-mixed", gspec, o.seed)
	if err != nil {
		return nil, err
	}
	streams := schedule(spec, window, in.subset, in.g.NumNodes(), rand.New(rand.NewSource(^o.seed)))
	var ops []op
	for _, st := range streams {
		ops = append(ops, st...)
	}
	var rounds []*serveRound
	for len(rounds) < n {
		runtime.GC()
		r, err := serveOnce(ctx, in, streams, o)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds), err)
		}
		rounds = append(rounds, r)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := summarizeServe(in, ops, rounds, rss, o.trace)
	if o.trace {
		if err := traceServeWrites(ctx, in, rounds[len(rounds)-1], res, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceServeWrites breaks the write path of serve-mixed down by layer:
// traced mirror passes over the write batches the last round
// acknowledged, in their order, each of which must end in the embedding
// that round served. Layer times are per-batch minima across the passes.
// Coverage is the layer spans' share of the server's in-process
// ApplyEvents time, which runs beside reads and so takes longer than the
// mirror's batches alone.
func traceServeWrites(ctx context.Context, in *ingestInput, last *serveRound, res *result, o options) error {
	const passes = 3
	acked := *in
	acked.batches = nil
	for _, b := range last.acked {
		acked.batches = append(acked.batches, in.batches[b])
	}
	t := &tracer{origin: time.Now()}
	var mp *mirrorPass
	for t.pass = 0; t.pass < passes; t.pass++ {
		runtime.GC()
		var err error
		if mp, err = traceMirror(ctx, &acked, t, nil); err != nil {
			return err
		}
		if err := sameBits(mp.m.embedding(), last.embedding); err != nil {
			return fmt.Errorf("mirror of the acknowledged writes diverged from the served embedding: %w", err)
		}
	}
	self := selfTimes(t.spans)
	layerMS, _ := setLayers(res, self, mp)
	facadeMS := last.ledger.batchMS
	res.set("trace.coverage", layerMS/facadeMS)
	res.note("write ledger: per-batch minimum over %d mirror passes of the %d batches the last round acknowledged",
		passes, mp.batches)
	return noteShares(res, o, in.name, t.spans, self, facadeMS)
}

// serveRound is one set-up and one pass of the schedule: the set-up
// time, every request's outcome in schedule order, the server-side apply
// time of each acknowledged write (NaN elsewhere), the acknowledged write
// batches in order, the embedding served at the end, and the traced
// run's server-side ledger.
type serveRound struct {
	setup     float64
	results   []opResult
	applies   []float64
	acked     []int
	embedding [][]float64
	recon     float64
	ledger    serveLedger
}

// serveLedger sums what only the server side can time, over one or more
// rounds: in-process ApplyEvents, allocation, WAL appends and
// checkpoints, read handlers, round trips and shed requests.
type serveLedger struct {
	batches, batchMS                                float64
	allocMB, pauseMS                                float64
	walAppendMS, walAppends, ckptMS, ckpts          float64
	recMS, recN, rightMS, rightN, rttMS, rttN, shed float64
}

func (l *serveLedger) add(o serveLedger) {
	l.batches += o.batches
	l.batchMS += o.batchMS
	l.allocMB += o.allocMB
	l.pauseMS += o.pauseMS
	l.walAppendMS += o.walAppendMS
	l.walAppends += o.walAppends
	l.ckptMS += o.ckptMS
	l.ckpts += o.ckpts
	l.recMS += o.recMS
	l.recN += o.recN
	l.rightMS += o.rightMS
	l.rightN += o.rightN
	l.rttMS += o.rttMS
	l.rttN += o.rttN
	l.shed += o.shed
}

// serveOnce sets the server up, drives one pass and tears it down.
func serveOnce(ctx context.Context, in *ingestInput, streams [][]op, o options) (*serveRound, error) {
	start := time.Now()
	s, err := setUp(in.g.Clone(), in.subset, in.cfg, o.workDir, o.trace)
	if err != nil {
		return nil, err
	}
	r := &serveRound{setup: time.Since(start).Seconds()}
	err = r.drive(ctx, s, in, streams)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// runGenerator runs the generator process on in and waits for it.
func runGenerator(ctx context.Context, in genInput) ([]opResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), genRoleEnv+"=gen")
	cmd.Stdin = bytes.NewReader(payload)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generator process: %w", err)
	}
	var res []opResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("generator output: %w", err)
	}
	return res, nil
}

// drive runs the load against s and checks it: no errors other than
// shed requests, the served version advanced by exactly the acknowledged
// write batches, the served embedding equals the in-process one at that
// version, and the audit passes after shutdown.
func (r *serveRound) drive(ctx context.Context, s *served, in *ingestInput, streams [][]op) error {
	emb := s.d.Embedder()
	v0, m0 := emb.Version(), s.d.Metrics()
	mem := startMem()
	results, err := runGenerator(ctx, genInput{URL: s.url, Streams: streams, Batches: in.batches})
	if err != nil {
		return err
	}
	allocMB, pauseMS := mem.end()
	m1 := s.d.Metrics()

	applies, _ := s.ingest.samples()
	r.results, r.applies = results, make([]float64, len(results))
	for i, res := range results {
		r.applies[i] = math.NaN()
		switch {
		case res.Err != "" && !res.Shed:
			return fmt.Errorf("%s request failed: %s", res.Kind, res.Err)
		case res.Err == "" && res.Kind == opWrite:
			// Writes go out one at a time on one connection, so the k-th
			// acknowledged write is the k-th batch the server applied.
			if len(r.acked) < len(applies) {
				r.applies[i] = applies[len(r.acked)]
			}
			r.acked = append(r.acked, res.Batch)
		}
	}
	if v1, acked := emb.Version(), len(r.acked); v1-v0 != uint64(acked) || len(applies) != acked {
		return fmt.Errorf("version advanced %d -> %d with %d write batches acknowledged to the client and %d applied",
			v0, v1, acked, len(applies))
	}
	c := client.New(s.url, client.WithRetries(0), client.WithBinary(true))
	got, err := c.Embedding(ctx)
	if err != nil {
		return fmt.Errorf("read served embedding: %w", err)
	}
	snap := emb.Snapshot()
	if got.Version != snap.Version() {
		return fmt.Errorf("served embedding at version %d, in-process snapshot at %d", got.Version, snap.Version())
	}
	if err := sameBits(got.Rows, snap.Embedding()); err != nil {
		return fmt.Errorf("served embedding differs from the in-process one at version %d: %w", got.Version, err)
	}
	r.embedding = got.Rows
	if err := s.stopServing(); err != nil {
		return err
	}
	if err := emb.Audit(); err != nil {
		return fmt.Errorf("audit after shutdown: %w", err)
	}
	r.recon = emb.ReconstructionError() / emb.ProximityFrobNorm()
	if s.calls == nil {
		return nil
	}

	sumMS := func(a, b treesvd.DurationStats) float64 {
		return (float64(b.Mean)*float64(b.Count) - float64(a.Mean)*float64(a.Count)) / 1e6
	}
	l := &r.ledger
	l.batches = float64(m1.BatchesApplied - m0.BatchesApplied)
	l.batchMS = sumMS(m0.Batch, m1.Batch)
	l.allocMB, l.pauseMS = allocMB, pauseMS
	l.walAppendMS, l.walAppends = sumMS(m0.WAL.Append, m1.WAL.Append), float64(m1.WAL.Append.Count-m0.WAL.Append.Count)
	l.ckptMS, l.ckpts = sumMS(m0.WAL.Checkpoint, m1.WAL.Checkpoint), float64(m1.WAL.Checkpoint.Count-m0.WAL.Checkpoint.Count)
	s.calls.mu.Lock()
	rec, right := s.calls.byPath["/v1/recommend"], s.calls.byPath["/v1/rightembedding"]
	l.recMS, l.recN, l.rightMS, l.rightN = sum(rec), float64(len(rec)), sum(right), float64(len(right))
	l.shed = float64(s.calls.shed)
	s.calls.mu.Unlock()
	for _, res := range results {
		if res.Kind != opWrite && res.Err == "" {
			l.rttMS += ms(res.RTT)
			l.rttN++
		}
	}
	return nil
}

// summarizeServe folds the rounds into the end-to-end metrics, or with
// trace into the server-side ledger. Latencies are per-request minima
// across rounds, over the requests past the warm-up.
func summarizeServe(in *ingestInput, ops []op, rounds []*serveRound, rss float64, trace bool) *result {
	res := newResult()
	lat := make([][]float64, len(rounds))
	apps := make([][]float64, len(rounds))
	var setups, late, pooled []float64
	var ledger serveLedger
	for ri, r := range rounds {
		setups = append(setups, r.setup)
		apps[ri] = r.applies
		for _, a := range r.applies {
			if !math.IsNaN(a) {
				pooled = append(pooled, a)
			}
		}
		lat[ri] = make([]float64, len(r.results))
		for i, x := range r.results {
			res.attempted++
			lat[ri][i] = ms(x.Latency)
			if x.Err != "" {
				res.failed++
				lat[ri][i] = math.NaN()
			}
			if !x.Warm {
				late = append(late, ms(x.Late))
			}
		}
		ledger.add(r.ledger)
	}
	latMin, appMin := minAcross(lat), minAcross(apps)
	var read, write, apply []float64
	events := 0
	for i, o := range ops {
		if o.Warm || math.IsNaN(latMin[i]) {
			continue
		}
		if o.Kind != opWrite {
			read = append(read, latMin[i])
			continue
		}
		write = append(write, latMin[i])
		if !math.IsNaN(appMin[i]) {
			apply = append(apply, appMin[i])
			events += len(in.batches[o.Batch])
		}
	}
	lateTail := percentile(late, 99)
	res.note("latencies: per-request minimum over %d rounds; %d of %d requests failed or shed",
		len(rounds), res.failed, res.attempted)
	res.note("gen.late_ms: p%.1f %.3f ms of n=%d", lateTail.Pct, lateTail.Value, lateTail.N)
	if trace {
		l := ledger
		res.set("facade.batch_ms", l.batchMS/l.batches)
		res.set("runtime.alloc_mb_per_batch", l.allocMB/l.batches)
		res.set("runtime.gc_pause_ms", l.pauseMS/float64(len(rounds)))
		res.set("server.ingest_ms", sum(pooled)/float64(len(pooled)))
		res.set("wal.append_ms", l.walAppendMS/l.walAppends)
		res.set("wal.checkpoint_ms", l.ckptMS/max(l.ckpts, 1))
		res.set("server.recommend_ms", l.recMS/l.recN)
		res.set("server.right_ms", l.rightMS/l.rightN)
		res.set("server.shed", l.shed)
		res.set("transport_ms", l.rttMS/l.rttN-(l.recMS+l.rightMS)/(l.recN+l.rightN))
		res.set("gen.late_ms", lateTail.Value)
		res.note("ledger: %.0f write batches, %.0f checkpoints over %d rounds", l.batches, l.ckpts, len(rounds))
		return res
	}
	res.set("setup_s", median(setups))
	res.note("setup_s: median of %d set-ups", len(setups))
	res.setTail("apply_p50_ms", apply, 50)
	res.setTail("apply_p90_ms", apply, 90)
	res.set("ingest_events_per_s", float64(events)/(sum(apply)/1e3))
	res.set("recon_rel_err", rounds[len(rounds)-1].recon)
	res.setTail("read_p50_ms", read, 50)
	res.setTail("read_p99_ms", read, 99)
	res.setTail("write_p50_ms", write, 50)
	res.setTail("write_p90_ms", write, 90)
	res.set("peak_rss_mb", rss)
	return res
}
