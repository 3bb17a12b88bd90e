package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/obs"
	"github.com/tree-svd/treesvd/internal/par"
	"github.com/tree-svd/treesvd/internal/ppr"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's origin; Parent is the enclosing span's name ("" for a batch);
// Pass counts the traced passes over the stream.
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Pass   int           `json:"pass"`
	Batch  int           `json:"batch"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out after the run.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
}

// do runs f as a span named name under parent in batch.
func (t *tracer) do(name, parent string, batch int, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Since(t.origin)
	err := f()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: t.pass, Batch: batch,
		Start: start, End: time.Since(t.origin)})
	return err
}

// Layer span names, in the order a batch calls them.
const (
	spanBatch   = "batch"
	spanGraph   = "graph.apply"
	spanRepair  = "ppr.repair"
	spanRefresh = "proximity.refresh"
	spanUpdate  = "core.update"
	spanFreeze  = "snapshot.freeze"
)

var layerSpans = []string{spanGraph, spanRepair, spanRefresh, spanUpdate, spanFreeze}

// mirror rebuilds the facade's single-shard pipeline from the internal
// layers: New's construction, then applyBatchLocked's stage order per
// batch, ending in publishLocked's freeze. It must stay numerically
// identical to treesvd.Embedder; TestMirrorMatchesFacade pins that.
type mirror struct {
	g      *graph.Graph
	subset []int32
	sub    *ppr.Subset
	prox   *ppr.Proximity
	tree   *core.Tree

	submitted, effective int
	blockFactor          atomic.Int64 // ns of level-1 block recomputes, from the tree's trace hook
}

// newMirror is treesvd.New for one shard.
func newMirror(g *graph.Graph, subset []int32, cfg treesvd.Config) (*mirror, error) {
	if cfg.Shards > 1 || cfg.SVDUpdate || cfg.PushAccel != treesvd.PushClassic {
		return nil, fmt.Errorf("mirror models the single-shard classic pipeline, not %+v", cfg)
	}
	sw := par.SplitBudget(cfg.Workers, 1)
	params := ppr.Params{Alpha: cfg.Alpha, RMax: cfg.RMax, Workers: sw, Met: &ppr.Metrics{}}
	// Shard 0 keeps Config.Seed; later shards offset it, which the mirror
	// does not model.
	tcfg := core.Config{Rank: cfg.Dim, Branch: cfg.Branch, Levels: cfg.Levels,
		Delta: cfg.Delta, Seed: cfg.Seed, Workers: sw}
	sub, err := ppr.NewSubset(g, subset, params)
	if err != nil {
		return nil, err
	}
	prox := ppr.NewProximity(sub, max(cfg.MaxNodes, g.NumNodes()), tcfg.Blocks())
	tree, err := core.NewTree(prox.M, tcfg)
	if err != nil {
		return nil, err
	}
	if err := tree.Build(context.Background()); err != nil {
		return nil, err
	}
	m := &mirror{g: g, subset: subset, sub: sub, prox: prox, tree: tree}
	tree.SetTrace(func(ev obs.TraceEvent) {
		if ev.Kind == obs.TraceBlockRecompute {
			m.blockFactor.Add(int64(ev.Dur))
		}
	})
	m.freeze()
	return m, nil
}

// apply is applyBatchLocked followed by the publish freeze, each layer
// call a child span of the batch span.
func (m *mirror) apply(ctx context.Context, t *tracer, batch int, events []graph.Event) error {
	m.submitted += len(events)
	return t.do(spanBatch, "", batch, func() error {
		child := func(name string, f func() error) error { return t.do(name, spanBatch, batch, f) }
		if m.sub.RebuildThreshold(len(events)) {
			// The Theorem 3.7 fallback for oversized batches.
			_ = child(spanGraph, func() error { m.effective += m.g.ApplyAll(events); return nil })
			if err := child(spanRepair, func() error { return m.sub.Rebuild(ctx) }); err != nil {
				return err
			}
			_ = child(spanRefresh, func() error { m.prox.RefreshAll(); return nil })
		} else {
			var applied []ppr.Applied
			_ = child(spanGraph, func() error { applied = ppr.ApplyAll(m.g, events); return nil })
			m.effective += len(applied)
			if err := child(spanRepair, func() error { return m.sub.Repair(ctx, applied) }); err != nil {
				return err
			}
			_ = child(spanRefresh, func() error { m.prox.Refresh(); return nil })
		}
		if err := child(spanUpdate, func() error { _, err := m.tree.Update(ctx); return err }); err != nil {
			return err
		}
		return child(spanFreeze, func() error { m.freeze(); return nil })
	})
}

// freeze is publishLocked's work for one shard: copy the subset's
// out-neighbour lists, freeze X = U√Σ and the proximity matrix as CSR.
func (m *mirror) freeze() {
	nbrs := make(map[int32][]int32, len(m.subset))
	for _, s := range m.subset {
		nbrs[s] = append([]int32(nil), m.g.OutNeighbors(s)...)
	}
	m.tree.Root().USqrtS()
	m.prox.M.ToCSR()
	m.tree.Stats()
}

// embedding returns the mirror's X = U√Σ as rows, the counterpart of
// Embedder.Embedding.
func (m *mirror) embedding() [][]float64 {
	x := m.tree.Root().USqrtS()
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), x.Row(i)...)
	}
	return rows
}

// mirrorPass is one traced pass of the mirror over the stream, with the
// layer counters taken as deltas from the end of the build.
type mirrorPass struct {
	m                                  *mirror
	pushes, adjusts                    uint64
	rebuilt, skipped, updated          uint64
	mergeNs                            int64
	batches, submitted, effective, nnz int
}

// runMirror builds the mirror on a clone of the input graph and applies
// every batch, recording spans into t (nil for an untraced pass).
func runMirror(ctx context.Context, in *ingestInput, t *tracer) (*mirror, error) {
	p, err := traceMirror(ctx, in, t, nil)
	if err != nil {
		return nil, err
	}
	return p.m, nil
}

// traceMirror is runMirror with the layer counts of the pass. before, if
// not nil, runs ahead of each mirror batch with the batch's index.
func traceMirror(ctx context.Context, in *ingestInput, t *tracer, before func(i int) error) (*mirrorPass, error) {
	m, err := newMirror(in.g.Clone(), in.subset, in.cfg)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	pm, tm := m.sub.Metrics(), m.tree.Metrics()
	p0, a0 := pm.Pushes.Load(), pm.Adjusts.Load()
	r0, s0, u0 := tm.BlocksRebuilt.Load(), tm.BlocksSkipped.Load(), tm.BlocksUpdated.Load()
	g0 := tm.MergeNanos.Snapshot().Sum
	for i, b := range in.batches {
		if before != nil {
			if err := before(i); err != nil {
				return nil, err
			}
		}
		if err := m.apply(ctx, t, i, b); err != nil {
			return nil, fmt.Errorf("mirror batch %d: %w", i, err)
		}
	}
	return &mirrorPass{
		m: m, pushes: pm.Pushes.Load() - p0, adjusts: pm.Adjusts.Load() - a0,
		rebuilt: tm.BlocksRebuilt.Load() - r0, skipped: tm.BlocksSkipped.Load() - s0,
		updated: tm.BlocksUpdated.Load() - u0, mergeNs: tm.MergeNanos.Snapshot().Sum - g0,
		batches: len(in.batches), submitted: m.submitted, effective: m.effective, nnz: m.prox.M.NNZ(),
	}, nil
}

// traceIngest is the traced run of an ingest workload: passes over the
// stream until the measuring time is used up, each advancing a fresh
// facade and a fresh traced mirror in lockstep, one batch on the facade
// (untraced, with no reads between batches) and then the same batch on
// the mirror, so that both timings of a batch see the same interference
// from the rest of the machine. Like the end-to-end run, every timing is
// the per-batch minimum across passes (see minAcross). Coverage is the
// layer spans' share of the facade's ApplyEvents time, and the tracing
// overhead is traced (mirror) minus untraced (facade) ingest rate.
func traceIngest(ctx context.Context, in *ingestInput, o options) (*result, error) {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	t := &tracer{origin: time.Now()}
	var (
		facade           [][]float64
		allocMB, pauseMS float64
		last             *mirrorPass
	)
	res := newResult()
	for len(facade) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		e, err := treesvd.New(in.g.Clone(), in.subset, in.cfg)
		if err != nil {
			return nil, fmt.Errorf("New: %w", err)
		}
		apply := make([]float64, len(in.batches))
		t.pass = len(facade)
		mp, err := traceMirror(ctx, in, t, func(i int) error {
			mem := startMem()
			start := time.Now()
			if _, err := e.ApplyEvents(ctx, in.batches[i]); err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
			apply[i] = ms(time.Since(start))
			a, p := mem.end()
			allocMB += a
			pauseMS += p
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := sameBits(mp.m.embedding(), e.Snapshot().Embedding()); err != nil {
			return nil, fmt.Errorf("mirror pipeline diverged from the facade: %w", err)
		}
		if last != nil && (last.pushes != mp.pushes || last.rebuilt != mp.rebuilt) {
			return nil, fmt.Errorf("layer counts changed between identical passes: %d/%d pushes, %d/%d blocks rebuilt",
				last.pushes, mp.pushes, last.rebuilt, mp.rebuilt)
		}
		last = mp
		facade = append(facade, apply)
		res.attempted += len(apply)
	}
	passes := selfTimes(t.spans)
	layerMS, batchMS := setLayers(res, passes, last)
	facadeMS := sum(minAcross(facade))
	res.set("facade.batch_ms", facadeMS/float64(last.batches))
	res.set("runtime.alloc_mb_per_batch", allocMB/float64(len(facade)*last.batches))
	res.set("runtime.gc_pause_ms", pauseMS/float64(len(facade)))
	coverage := layerMS / facadeMS
	res.set("trace.coverage", coverage)
	res.set("trace.overhead_events_per_s", float64(last.submitted)*1e3*(1/batchMS-1/facadeMS))
	res.note("ledger: per-batch minimum over %d lockstep facade+mirror passes of %d batches", len(facade), last.batches)
	if err := noteShares(res, o, in.name, t.spans, passes, facadeMS); err != nil {
		return nil, err
	}
	if coverage < 0.95 {
		res.note("FLAG: layer spans cover %.1f%% of facade batch time (< 95%%)", 100*coverage)
	}
	return res, nil
}

// minSelf returns, per batch, the smallest total self time in ms of the
// named spans across the traced passes.
func minSelf(passes []map[string][]float64, names ...string) []float64 {
	runs := make([][]float64, len(passes))
	for i, p := range passes {
		runs[i] = make([]float64, len(p[names[0]]))
		for _, n := range names {
			for b, v := range p[n] {
				runs[i][b] += v
			}
		}
	}
	return minAcross(runs)
}

// setLayers reports the mirror's per-layer metrics: each layer's self
// time per batch (per-batch minimum across passes, averaged over the
// batches), and the layer counts of one pass. It returns the total self
// time over one pass of the layer spans, and of the batch spans with
// their layers, in ms.
func setLayers(res *result, passes []map[string][]float64, last *mirrorPass) (layerMS, batchMS float64) {
	perBatch := func(names ...string) float64 { return sum(minSelf(passes, names...)) / float64(last.batches) }
	layerMS = sum(minSelf(passes, layerSpans...))
	batchMS = sum(minSelf(passes, append([]string{spanBatch}, layerSpans...)...))
	res.set("batch_ms", batchMS/float64(last.batches))
	res.set("graph.apply_ms", perBatch(spanGraph))
	res.set("graph.effective_frac", float64(last.effective)/float64(last.submitted))
	res.set("ppr.repair_ms", perBatch(spanRepair))
	res.set("ppr.pushes", float64(last.pushes))
	res.set("ppr.adjusts", float64(last.adjusts))
	res.set("proximity.refresh_ms", perBatch(spanRefresh))
	res.set("proximity.nnz", float64(last.nnz))
	res.set("core.update_ms", perBatch(spanUpdate))
	res.set("core.blocks_rebuilt", float64(last.rebuilt))
	res.set("core.blocks_skipped", float64(last.skipped))
	res.set("core.blocks_updated", float64(last.updated))
	res.set("core.update_hit_rate", hitRate(last.updated, last.rebuilt))
	res.set("core.block_factor_ms", float64(last.m.blockFactor.Load())/1e6/float64(last.batches))
	res.set("core.merge_ms", float64(last.mergeNs)/1e6/float64(last.batches))
	res.set("snapshot.freeze_ms", perBatch(spanFreeze))
	return layerMS, batchMS
}

// noteShares notes each span's share of the facade's batch time over one
// pass and writes the spans out.
func noteShares(res *result, o options, name string, spans []span, passes []map[string][]float64, facadeMS float64) error {
	for _, n := range append([]string{spanBatch}, layerSpans...) {
		res.note("share of facade batch time: %-18s %5.1f%%", n, 100*sum(minSelf(passes, n))/facadeMS)
	}
	path, err := writeSpans(o.workDir, name, o.seed, spans)
	if err != nil {
		return err
	}
	res.note("spans: %d written to %s", len(spans), path)
	return nil
}

func hitRate(updated, rebuilt uint64) float64 {
	if updated+rebuilt == 0 {
		return 0
	}
	return float64(updated) / float64(updated+rebuilt)
}

// selfTimes fills each span's self time (its duration minus the time its
// child spans cover) and returns, per pass, every span name's self time
// per batch in ms. The mirror is sequential, so a batch's layer spans
// never overlap and are recorded right before the batch span that
// encloses them.
func selfTimes(spans []span) []map[string][]float64 {
	var out []map[string][]float64
	var children time.Duration
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start
		if s.Parent == spanBatch {
			children += s.Self
		} else {
			s.Self -= children
			children = 0
		}
		for len(out) <= s.Pass {
			out = append(out, map[string][]float64{})
		}
		byBatch := out[s.Pass][s.Name]
		for len(byBatch) <= s.Batch {
			byBatch = append(byBatch, 0)
		}
		byBatch[s.Batch] += ms(s.Self)
		out[s.Pass][s.Name] = byBatch
	}
	return out
}

// writeSpans writes the spans as JSON lines under dir/spans.
func writeSpans(dir, name string, seed int64, spans []span) (string, error) {
	path := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
