package main

import (
	"context"
	"path/filepath"
	"testing"
)

// A traced pass over a small ring with the memory cache disabled crosses
// every seam — solver, store writes and reads, peer fetch and push —
// from two clients at once. Every child span must lie inside its
// handler, and every seam must have produced spans.
func TestTracePassAttributesEverySeam(t *testing.T) {
	ds := ringTestDesigns(6)
	p, err := newPlan(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	p.dealRoles(5)
	p.expectSolves = len(ds)
	p.warmHits = true
	w := &workload{name: "trace-test", nodes: ringNodes, requests: 3 * len(ds), rounds: 1, tailPct: 50, cache: -1}
	dir := t.TempDir()
	out, err := tracePass(context.Background(), w, p, filepath.Join(dir, "run"), filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if out.failed > 0 || len(out.problems) > 0 {
		t.Fatalf("%d failed calls, problems: %v", out.failed, out.problems)
	}
	got := map[string]float64{}
	for _, m := range out.metrics {
		got[m.name] = m.value
	}
	for _, name := range []string{
		"serve.handler_us.p50", "core.run_ms.total", "store.put_ms", "store.get_us",
		"cluster.fetch_ms", "cluster.push_ms", "serve.decode_us", "cluster.codec_us", "store.open_ms",
	} {
		if got[name] <= 0 {
			t.Errorf("%s = %g, want a measured value", name, got[name])
		}
	}
	if got["store.syncs_per_put"] != 2 {
		t.Errorf("store.syncs_per_put = %g; a Put fsyncs its blob and the ledger", got["store.syncs_per_put"])
	}
	if got["shape.solves"] != float64(len(ds)) {
		t.Errorf("shape.solves = %g, want %d", got["shape.solves"], len(ds))
	}
}
