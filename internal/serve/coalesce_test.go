package serve_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"prpart/internal/core"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
)

// The tests in this file pin coalescing across entry points: whichever
// surface leads a key's flight (a /v1/solve, a batch member or an
// async job), a request for the same key arriving on another surface
// joins it instead of solving again.

type asyncReply struct {
	code  int
	cache string
	body  []byte
}

// postAsync posts body to path from a goroutine (t.Fatal is off limits
// there) and delivers the reply on the returned channel.
func postAsync(ts *httptest.Server, path string, body []byte) <-chan asyncReply {
	out := make(chan asyncReply, 1)
	go func() {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			out <- asyncReply{code: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		out <- asyncReply{resp.StatusCode, resp.Header.Get("X-Cache"), buf.Bytes()}
	}()
	return out
}

// countingBlockingSolver is blockingSolver that also counts its calls.
func countingBlockingSolver(calls *atomic.Int64, release <-chan struct{}, entered chan<- struct{}) serve.SolveFunc {
	solve := blockingSolver(release, entered, nil)
	return func(ctx context.Context, d *design.Design, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		return solve(ctx, d, opts)
	}
}

// TestSolveCoalescesOntoJobLeader: a /v1/solve arriving while an async
// job leads the same key rides on the job's solve — one solve, the
// same bytes on both surfaces, one coalesced waiter.
func TestSolveCoalescesOntoJobLeader(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	var calls atomic.Int64
	o := obs.New()
	srv := serve.New(serve.Config{Workers: 2, Obs: o, Solver: countingBlockingSolver(&calls, release, entered)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.PaperExample(), "")
	id, _ := submitJob(t, ts, body)
	<-entered // the job leads the key inside the solver

	solved := postAsync(ts, "/v1/solve", body)
	waitCond(t, func() bool { return o.Snapshot().Counters["serve.coalesced"] == 1 })
	close(release)

	r := <-solved
	if r.code != 200 || r.cache != "coalesced" {
		t.Fatalf("/v1/solve behind a job: status %d, X-Cache %q, want 200 coalesced", r.code, r.cache)
	}
	waitJobState(t, ts, id, "done")
	resp, jb := postPathGet(t, ts, "/v1/jobs/"+id+"/result")
	if resp.StatusCode != 200 {
		t.Fatalf("job result: %d: %s", resp.StatusCode, jb)
	}
	if !bytes.Equal(jb, r.body) {
		t.Error("coalesced /v1/solve body differs from the job's result")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times for one key, want 1", n)
	}
	if n := o.Snapshot().Counters["serve.coalesced"]; n != 1 {
		t.Errorf("serve.coalesced = %d, want 1", n)
	}
}

// TestBatchMemberCoalescesOntoSolve: a batch member whose key is
// already in flight from a /v1/solve comes back "coalesced" with the
// solve's bytes, and only that one solve runs.
func TestBatchMemberCoalescesOntoSolve(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	var calls atomic.Int64
	o := obs.New()
	srv := serve.New(serve.Config{Workers: 2, Obs: o, Solver: countingBlockingSolver(&calls, release, entered)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := solveBody(t, design.PaperExample(), "")
	single := postAsync(ts, "/v1/solve", body)
	<-entered // the /v1/solve leads the key inside the solver

	batch := postAsync(ts, "/v1/solve/batch", batchBody(t, body))
	waitCond(t, func() bool { return o.Snapshot().Counters["serve.coalesced"] == 1 })
	close(release)

	s := <-single
	if s.code != 200 || s.cache != "miss" {
		t.Fatalf("leading /v1/solve: status %d, X-Cache %q, want 200 miss", s.code, s.cache)
	}
	b := <-batch
	if b.code != 200 {
		t.Fatalf("batch: %d: %s", b.code, b.body)
	}
	res := decodeBatch(t, b.body).Results
	if len(res) != 1 || res[0].Status != 200 || res[0].Cache != "coalesced" {
		t.Fatalf("batch member = %+v, want one 200 coalesced", res)
	}
	if !sameJSON(t, res[0].Result, s.body) {
		t.Error("coalesced batch member carries different bytes than the /v1/solve it joined")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times for one key, want 1", n)
	}
}
