package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"prpart/internal/cluster"
	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/serve"
)

// testPeerSecret is the shared cluster secret both test nodes (and
// every signed raw frame the tests post) agree on.
const testPeerSecret = "serve-cluster-secret"

// lateHandler lets a test start an httptest.Server (to learn its URL)
// before the serve.Server that needs that URL exists.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h = h
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterPair boots two cluster-enabled servers, A and B. B's ring
// contains only itself (it answers peer RPCs but never fetches or
// replicates), so the peer traffic between them is exactly what A
// initiates — which lets the test pin A's X-Cache: peer path without
// replication warming A's cache first. A non-nil solver replaces the
// real flow on both nodes.
func clusterPair(t *testing.T, solver serve.SolveFunc) (tsA, tsB *httptest.Server, oA, oB *obs.Obs) {
	t.Helper()
	lhA, lhB := &lateHandler{}, &lateHandler{}
	tsA, tsB = httptest.NewServer(lhA), httptest.NewServer(lhB)
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)

	oB = obs.New()
	clB, err := cluster.New(cluster.Config{Self: tsB.URL, Peers: []string{tsB.URL}, Secret: testPeerSecret, Seed: 11, Obs: oB})
	if err != nil {
		t.Fatal(err)
	}
	srvB := serve.New(serve.Config{Workers: 2, Obs: oB, Cluster: clB, Solver: solver})
	t.Cleanup(srvB.Close)
	lhB.set(srvB.Handler())

	oA = obs.New()
	clA, err := cluster.New(cluster.Config{
		Self: tsA.URL, Peers: []string{tsA.URL, tsB.URL}, Secret: testPeerSecret, Seed: 11, Replicas: 2, Obs: oA,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvA := serve.New(serve.Config{Workers: 2, Obs: oA, Cluster: clA, Solver: solver})
	t.Cleanup(srvA.Close)
	lhA.set(srvA.Handler())
	return tsA, tsB, oA, oB
}

// TestClusterPeerFill solves on B, then requests the same key on A: A
// must serve it from the peer tier (X-Cache: peer), byte-identical,
// without running its own solve, and the fill must warm A's local
// tiers for the next request.
func TestClusterPeerFill(t *testing.T) {
	tsA, tsB, oA, oB := clusterPair(t, nil)
	body := solveBody(t, design.VideoReceiver(), `{"budget": {"clb": 6800, "bram": 64, "dsp": 150}}`)

	rB, bB := post(t, tsB, body)
	if rB.StatusCode != 200 || rB.Header.Get("X-Cache") != "miss" {
		t.Fatalf("solve on B: status %d, X-Cache %q", rB.StatusCode, rB.Header.Get("X-Cache"))
	}

	rA, bA := post(t, tsA, body)
	if rA.StatusCode != 200 {
		t.Fatalf("solve on A: status %d: %s", rA.StatusCode, bA)
	}
	if got := rA.Header.Get("X-Cache"); got != "peer" {
		t.Fatalf("X-Cache on A = %q, want peer", got)
	}
	if !bytes.Equal(bA, bB) {
		t.Fatal("peer-filled body differs from the origin solve")
	}
	if rA.Header.Get("X-Solve-Key") != rB.Header.Get("X-Solve-Key") {
		t.Fatal("solve keys differ across nodes")
	}

	// The fill warmed A's cache: the next request is a local hit.
	rA2, bA2 := post(t, tsA, body)
	if got := rA2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request on A: X-Cache %q, want hit", got)
	}
	if !bytes.Equal(bA2, bB) {
		t.Fatal("cached peer fill differs from the origin solve")
	}

	cA := oA.Snapshot().Counters
	if cA["cluster.peer_hits"] != 1 || cA["serve.peer_serves"] != 1 || cA["jobs.peer_fills"] != 1 {
		t.Fatalf("A counters after peer fill: hits=%d serves=%d fills=%d",
			cA["cluster.peer_hits"], cA["serve.peer_serves"], cA["jobs.peer_fills"])
	}
	if cA["serve.solves"] != 0 {
		t.Fatalf("A ran %d solves; the peer tier should have answered", cA["serve.solves"])
	}
	cB := oB.Snapshot().Counters
	if cB["cluster.fetch_served"] != 1 {
		t.Fatalf("B served %d fetches, want 1", cB["cluster.fetch_served"])
	}
}

// TestClusterJobFlightLoserReplicates: an async job that loses the
// flight race to a /v1/solve still publishes its own solve through
// every tier, including the push to the key's other owner, so B
// receives one push from each solve.
func TestClusterJobFlightLoserReplicates(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	tsA, _, _, oB := clusterPair(t, blockingSolver(release, entered, nil))
	body := solveBody(t, design.PaperExample(), "")

	single := postAsync(tsA, "/v1/solve", body)
	<-entered // the /v1/solve leads the key inside A's solver
	id, _ := submitJob(t, tsA, body)
	<-entered // the job lost the flight race and solves on its own
	close(release)

	if r := <-single; r.code != 200 || r.cache != "miss" {
		t.Fatalf("leading /v1/solve: status %d, X-Cache %q, want 200 miss", r.code, r.cache)
	}
	waitJobState(t, tsA, id, "done")
	if n := oB.Snapshot().Counters["cluster.pushes_received"]; n != 2 {
		t.Fatalf("B received %d pushes, want 2 (one per solve on A)", n)
	}
}

// postPeer posts one raw frame to a peer endpoint. A non-empty secret
// signs the request the way a real ring member would; an empty secret
// leaves the auth header off entirely.
func postPeer(t *testing.T, base, path string, raw []byte, secret string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if secret != "" {
		req.Header.Set(cluster.AuthHeader, cluster.Sign(secret, raw))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestClusterPushEndpointGuards pins the peer handlers' trust boundary
// for authenticated senders: malformed frames and keys outside the
// solve namespace are rejected with 400 and counted as peer_bad_body,
// and nothing is cached.
func TestClusterPushEndpointGuards(t *testing.T) {
	_, tsB, _, oB := clusterPair(t, nil)

	postRaw := func(path string, raw []byte) int {
		code, _ := postPeer(t, tsB.URL, path, raw, testPeerSecret)
		return code
	}

	if code := postRaw(cluster.PushPath, []byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("garbage push = %d, want 400", code)
	}
	frame, err := cluster.EncodePeerBody(cluster.Body{Found: true, Key: "job:evil", Data: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if code := postRaw(cluster.PushPath, frame); code != http.StatusBadRequest {
		t.Fatalf("job-namespace push = %d, want 400", code)
	}
	miss, err := cluster.EncodePeerBody(cluster.Body{Key: "sha256:" + fmt.Sprintf("%064x", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if code := postRaw(cluster.PushPath, miss); code != http.StatusBadRequest {
		t.Fatalf("bodyless push = %d, want 400", code)
	}
	if code := postRaw(cluster.FetchPath, []byte("junk fetch")); code != http.StatusBadRequest {
		t.Fatalf("garbage fetch = %d, want 400", code)
	}
	// The fetch side enforces the same namespace guard as push: job
	// records never leave the node over the peer wire.
	jobFetch, err := cluster.EncodePeerFetch("job:some-job-id")
	if err != nil {
		t.Fatal(err)
	}
	if code := postRaw(cluster.FetchPath, jobFetch); code != http.StatusBadRequest {
		t.Fatalf("job-namespace fetch = %d, want 400", code)
	}

	c := oB.Snapshot().Counters
	if c["cluster.peer_bad_body"] != 5 {
		t.Fatalf("peer_bad_body = %d, want 5", c["cluster.peer_bad_body"])
	}
	if c["cluster.pushes_received"] != 0 {
		t.Fatalf("pushes_received = %d after only bad pushes", c["cluster.pushes_received"])
	}
}

// TestClusterPeerAuthRequired pins the peer endpoints' authentication
// boundary: a structurally valid, digest-correct push for a real solve
// key is still refused with 403 when it is unsigned or signed with the
// wrong secret — counted as peer_denied, never decoded, never cached.
// Without this check anything that can reach the public port could
// poison arbitrary solve keys with attacker-chosen bytes.
func TestClusterPeerAuthRequired(t *testing.T) {
	_, tsB, _, oB := clusterPair(t, nil)

	key := "sha256:" + fmt.Sprintf("%064x", 2)
	push, err := cluster.EncodePeerBody(cluster.Body{Found: true, Verdict: 1, Key: key, Data: []byte(`{"poisoned":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postPeer(t, tsB.URL, cluster.PushPath, push, ""); code != http.StatusForbidden {
		t.Fatalf("unsigned push = %d, want 403", code)
	}
	if code, _ := postPeer(t, tsB.URL, cluster.PushPath, push, "wrong-secret"); code != http.StatusForbidden {
		t.Fatalf("wrong-secret push = %d, want 403", code)
	}
	fetch, err := cluster.EncodePeerFetch(key)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postPeer(t, tsB.URL, cluster.FetchPath, fetch, ""); code != http.StatusForbidden {
		t.Fatalf("unsigned fetch = %d, want 403", code)
	}

	c := oB.Snapshot().Counters
	if c["cluster.peer_denied"] != 3 {
		t.Fatalf("peer_denied = %d, want 3", c["cluster.peer_denied"])
	}
	if c["cluster.pushes_received"] != 0 || c["cluster.peer_bad_body"] != 0 {
		t.Fatalf("refused requests leaked into other counters: %v", c)
	}

	// Nothing was imported: an authenticated fetch for the poisoned key
	// comes back not-found.
	code, raw := postPeer(t, tsB.URL, cluster.FetchPath, fetch, testPeerSecret)
	if code != http.StatusOK {
		t.Fatalf("authenticated fetch = %d, want 200", code)
	}
	pb, err := cluster.DecodePeerBody(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Found {
		t.Fatal("refused push was cached anyway")
	}
}

// TestClusterHealthzShape pins the exact JSON of the /healthz cluster
// block. With no peer errors the block is fully deterministic, so the
// test compares raw bytes: a field rename or type change — which would
// break dashboards and the e2e harness — fails loudly here.
func TestClusterHealthzShape(t *testing.T) {
	tsA, tsB, _, _ := clusterPair(t, nil)

	resp, err := http.Get(tsA.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(
		`{"self":%q,"ringSize":2,"replicas":2,"peers":[{"url":%q,"reachable":true,"lastErrorAgeSec":-1}]}`,
		tsA.URL, tsB.URL)
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, health.Cluster); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, []byte(want)); err != nil {
		t.Fatal(err)
	}
	if gotC.String() != wantC.String() {
		t.Fatalf("cluster health shape changed:\n got: %s\nwant: %s", gotC.String(), wantC.String())
	}

	// A non-cluster server must not grow the block.
	plain := serve.New(serve.Config{Workers: 1})
	defer plain.Close()
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cluster"]; ok {
		t.Fatal("non-cluster healthz carries a cluster block")
	}
}
