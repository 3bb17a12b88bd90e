package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	treesvd "github.com/tree-svd/treesvd"
	"github.com/tree-svd/treesvd/client"
)

// Operation kinds of the serve-mixed schedule.
const (
	opRecommend = "recommend"
	opRight     = "right"
	opWrite     = "write"
)

// op is one scheduled request. Due is its offset from the start of the
// load; Warm marks the warm-up prefix, which runs but is not reported.
type op struct {
	Due   time.Duration `json:"due"`
	Kind  string        `json:"kind"`
	Node  int32         `json:"node,omitempty"`
	Batch int           `json:"batch,omitempty"`
	Warm  bool          `json:"warm,omitempty"`
}

// genInput is what the parent hands the generator process on stdin: the
// server URL, the pre-drawn schedule of each connection, and the write
// batches the schedule refers to.
type genInput struct {
	URL     string            `json:"url"`
	Streams [][]op            `json:"streams"`
	Batches [][]treesvd.Event `json:"batches"`
}

// opResult is one request's outcome. Latency runs from the due time to
// the response, Late from the due time to the send, RTT from the send to
// the response.
type opResult struct {
	Kind    string        `json:"kind"`
	Batch   int           `json:"batch,omitempty"`
	Warm    bool          `json:"warm,omitempty"`
	Latency time.Duration `json:"latency"`
	Late    time.Duration `json:"late"`
	RTT     time.Duration `json:"rtt"`
	Err     string        `json:"err,omitempty"`
	Shed    bool          `json:"shed,omitempty"`
}

// genMain is the generator process: one goroutine and one keep-alive
// connection per schedule stream, each sending its requests open-loop at
// their due times (a request whose predecessor is still in flight goes
// out late, and the wait counts toward its latency).
func genMain(stdin io.Reader, stdout io.Writer) int {
	var in genInput
	if err := json.NewDecoder(stdin).Decode(&in); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench generator: read schedule:", err)
		return 1
	}
	ctx := context.Background()
	out := make([][]opResult, len(in.Streams))
	start := time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	for i, ops := range in.Streams {
		c := client.New(in.URL, client.WithRetries(0), client.WithBinary(true),
			client.WithHTTPClient(&http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			}))
		out[i] = make([]opResult, len(ops))
		wg.Add(1)
		go func(ops []op, res []opResult) {
			defer wg.Done()
			for j, o := range ops {
				res[j] = send(ctx, c, start, o, in.Batches)
			}
		}(ops, out[i])
	}
	wg.Wait()
	var all []opResult
	for _, r := range out {
		all = append(all, r...)
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench generator: write results:", err)
		return 1
	}
	return 0
}

// send waits for o's due time and issues it.
func send(ctx context.Context, c *client.Client, start time.Time, o op, batches [][]treesvd.Event) opResult {
	due := start.Add(o.Due)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	sent := time.Now()
	var err error
	switch o.Kind {
	case opRecommend:
		var r client.Recommendations
		if r, err = c.Recommend(ctx, o.Node, 10); err == nil && len(r.Recs) == 0 {
			err = fmt.Errorf("recommend %d: no candidates", o.Node)
		}
	case opRight:
		var m client.Matrix
		if m, err = c.RightEmbeddingRow(ctx, o.Node); err == nil && len(m.Rows) != 1 {
			err = fmt.Errorf("right embedding row %d: %d rows", o.Node, len(m.Rows))
		}
	case opWrite:
		var r client.ApplyResult
		if r, err = c.ApplyEvents(ctx, batches[o.Batch]); err == nil && r.Batches != 1 {
			err = fmt.Errorf("write batch %d: %d batches acknowledged", o.Batch, r.Batches)
		}
	default:
		err = fmt.Errorf("unknown operation %q", o.Kind)
	}
	done := time.Now()
	res := opResult{Kind: o.Kind, Batch: o.Batch, Warm: o.Warm, Latency: done.Sub(due), Late: sent.Sub(due), RTT: done.Sub(sent)}
	if err != nil {
		var shed *treesvd.OverloadError
		res.Err, res.Shed = err.Error(), errors.As(err, &shed)
	}
	return res
}
