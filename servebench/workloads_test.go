package main

import (
	"context"
	"net/http"
	"testing"

	"prpart/internal/design"
	"prpart/internal/synthetic"
)

func TestPaperCorpus(t *testing.T) {
	const n = 40
	a, b, c := paperCorpus(1, n), paperCorpus(1, n), paperCorpus(2, n)
	if len(a) != n || len(c) != n {
		t.Fatalf("corpus sizes %d and %d, want %d", len(a), len(c), n)
	}
	pool := map[string]bool{}
	for _, d := range synthetic.Generate(corpusSeed, 2*n) {
		pool[d.Name] = true
	}
	inA := map[string]bool{}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("same seed gave different corpora at %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if !pool[a[i].Name] || inA[a[i].Name] {
			t.Fatalf("design %s is not a distinct member of the fixed pool", a[i].Name)
		}
		inA[a[i].Name] = true
	}
	shared := 0
	for _, d := range c {
		if inA[d.Name] {
			shared++
		}
	}
	if shared == 0 || shared == n {
		t.Errorf("seeds 1 and 2 share %d of %d designs; want some but not all", shared, n)
	}
}

// Every seed's request list must be exactly reproducible from the seed.
func TestPlansDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.name == "ring-scale" {
			continue // multilevel-scale designs; covered by the cluster test below
		}
		p1, err := w.build(3)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := w.build(3)
		p3, _ := w.build(4)
		if len(p1.clients) != numClients {
			t.Fatalf("%s: %d clients, want %d", w.name, len(p1.clients), numClients)
		}
		same, total := 0, 0
		for c := range p1.clients {
			for i := range p1.clients[c] {
				if p1.keys[p1.clients[c][i].body] != p2.keys[p2.clients[c][i].body] {
					t.Fatalf("%s: seed 3 gave two different request lists", w.name)
				}
				if p1.keys[p1.clients[c][i].body] == p3.keys[p3.clients[c][i].body] {
					same++
				}
				total++
			}
		}
		if total != w.requests {
			t.Errorf("%s: %d timed requests, want %d", w.name, total, w.requests)
		}
		if same == total {
			t.Errorf("%s: seeds 3 and 4 gave the same request list", w.name)
		}
	}
}

// ringTestDesigns returns n small paper designs (fast to solve) with
// distinct names.
func ringTestDesigns(n int) []*design.Design {
	var ds []*design.Design
	for _, d := range synthetic.Generate(11, 20*n) {
		if len(d.AllModes()) <= 8 && len(ds) < n {
			ds = append(ds, d)
		}
	}
	return ds
}

// The peer-fill prediction from Ring.Owners must match what a real
// three-node cluster does: every call gets the predicted X-Cache, and
// cluster.peer_hits equals the predicted count.
func TestRingPredictionMatchesCluster(t *testing.T) {
	ds := ringTestDesigns(12)
	p, err := newPlan(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	p.clients = make([][]call, numClients)
	for i := range ds {
		for _, role := range roleOrders[i%len(roleOrders)] {
			p.clients[i%numClients] = append(p.clients[i%numClients], call{node: role, body: i})
		}
	}
	lns, urls, err := listenN(ringNodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.resolve(urls); err != nil {
		t.Fatal(err)
	}
	// A design first asked at one of its owners is later filled from a
	// peer at the third node; one first asked at the third node is then
	// pushed to both owners.
	wantPeer := 0
	for i := range ds {
		if roleOrders[i%len(roleOrders)][0] != roleOther {
			wantPeer++
		}
	}
	if p.expectPeerHits != wantPeer {
		t.Fatalf("predicted %d peer fills, want %d", p.expectPeerHits, wantPeer)
	}
	for c := range p.clients {
		for i, cl := range p.clients[c] {
			if (i%3 == 0) != (cl.want == wantMiss) {
				t.Fatalf("client %d call %d: want %q; exactly the first call per design solves", c, i, cl.want)
			}
		}
	}

	tr := newTracer()
	ns, err := tr.bootNodes(&workload{name: "ring-test", nodes: ringNodes}, lns, urls, storeDirs(t.TempDir(), ringNodes))
	if err != nil {
		t.Fatal(err)
	}
	defer stopNodes(ns)
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	replies := runClients(ctx, hc, urls, p.bodies, p.clients, nil)
	if _, failed, problems := checkReplies(p.clients, replies, map[int][]byte{}); failed > 0 {
		t.Fatalf("%d calls did not get their predicted outcome: %v", failed, problems)
	}
	var vars []map[string]int64
	for _, n := range ns {
		v, err := debugVars(ctx, hc, n.url)
		if err != nil {
			t.Fatal(err)
		}
		vars = append(vars, v)
	}
	w := &workload{name: "ring-scale"}
	p.expectSolves = len(ds)
	if problems := checkShape(w, p, sumShape(vars)); len(problems) > 0 {
		t.Fatalf("shape check: %v", problems)
	}
}

func TestCheckRepliesBodyIdentity(t *testing.T) {
	calls := [][]call{{{body: 0, want: wantWarm}, {body: 0, want: wantWarm}, {body: 1, want: wantWarm}}}
	replies := [][]reply{{
		{status: 200, cache: "store", body: []byte("a")},
		{status: 200, cache: "hit", body: []byte("b")},
		{status: 200, cache: "miss", body: []byte("c")},
	}}
	bad, failed, _ := checkReplies(calls, replies, map[int][]byte{})
	if failed != 2 || bad[0][0] || !bad[0][1] || !bad[0][2] {
		t.Fatalf("bad = %v, failed = %d; want the changed body and the unexpected miss to fail", bad, failed)
	}
}
