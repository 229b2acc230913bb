package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"prpart/internal/cluster"
	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/partition"
	"prpart/internal/serve"
	"prpart/internal/synthetic"
)

// Workload sizes. Each run sends a fixed request list, never a
// duration-bounded prefix of one: the paper corpus is heavy-tailed, so a
// time-bounded run would solve a different set of designs each time and
// its tail would move on its own.
const (
	// corpusSeed seeds the fixed design pools the workloads draw from.
	corpusSeed = 7
	// paperDesigns is the paper-cold corpus size (one request each).
	paperDesigns = 600
	// warmKeys is W, the number of solved keys warm-restart replays over.
	warmKeys = 128
	// warmCache is the restarted daemon's -cache, well below warmKeys so
	// the Zipf replay exercises both the LRU and hash-verified store reads.
	warmCache = 32
	// warmRounds and warmRoundRequests shape the warm-restart replay: its
	// sub-millisecond latencies move with whatever else the machine runs,
	// so the replay is timed in short rounds and each latency and
	// throughput figure is the median over rounds, which a burst of
	// interference in a few rounds does not move.
	warmRounds        = 60
	warmRoundRequests = 1000
	// warmZipfS is the Zipf exponent of the warm-restart key popularity.
	warmZipfS = 1.1
	// ringDesigns is the ring-scale design count; each design is requested
	// once at every node. A multiple of 6 so every order of the three ring
	// roles occurs equally often, and of 4 so the four §V classes do.
	ringDesigns = 96
	// ringModes is the target mode count of a ring-scale design.
	ringModes = 200
	// ringNodes is the ring-scale cluster size and ringReplicas its
	// per-key owner count.
	ringNodes    = 3
	ringReplicas = 2
	// ringSeed is the daemons' -ring-seed (placement, not workload).
	ringSeed = 1
	// numClients is the number of closed-loop clients, one per CPU of the
	// 2-core machine the bounds were fixed on.
	numClients = 2
)

// workload is one named traffic mix.
type workload struct {
	name string
	// nodes is the number of prpartd processes.
	nodes int
	// requests is the timed request count, sent in rounds of equal size.
	requests, rounds int
	// tailPct is the percentile reported as latency_tail_ms:
	// tailPercentile of the requests in one round, fixed here so the tail
	// always rests on the same sample count.
	tailPct int
	// cache is the daemon's -cache (0 = daemon default).
	cache int
	build func(seed int64) (*plan, error)
}

var workloads = []*workload{
	{name: "paper-cold", nodes: 1, requests: paperDesigns, rounds: 1, tailPct: 98, build: paperColdPlan},
	{name: "warm-restart", nodes: 1, requests: warmRounds * warmRoundRequests, rounds: warmRounds, tailPct: 99,
		cache: warmCache, build: warmRestartPlan},
	{name: "ring-scale", nodes: ringNodes, requests: 3 * ringDesigns, rounds: 1, tailPct: 96, build: ringScalePlan},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// X-Cache outcomes a call may be predicted to get. wantWarm accepts
// either in-memory or store service: with two concurrent clients the LRU
// contents at any instant depend on interleaving.
const (
	wantMiss = "miss"
	wantHit  = "hit"
	wantPeer = "peer"
	wantWarm = "warm"
)

// call is one timed request: which daemon gets which request body, and
// the X-Cache the workload predicts for it.
type call struct {
	node int
	body int
	want string
}

// plan is a workload's generated input: everything the daemons see,
// derived from the workload seed alone.
type plan struct {
	bodies [][]byte // distinct request bodies
	keys   []string // serve key of each body
	names  []string // design name of each body, unique in the plan
	// fill lists the bodies solved into the store before the timed phase
	// (warm-restart's untimed set-up).
	fill []int
	// clients holds each closed-loop client's timed calls, in order. In
	// ring-scale, node holds a ring role until resolve maps it to a node.
	clients [][]call
	// sample lists the bodies re-derived in-process after the timed phase.
	sample []int
	// expectSolves is the serve.solves total the timed phase must show.
	expectSolves int
	// expectPeerHits is the cluster.peer_hits total it must show (ring
	// only; set by resolve).
	expectPeerHits int
	// warmHits relaxes a predicted memory hit to hit-or-store, for a
	// daemon whose cache does not hold every key a node has seen.
	warmHits bool
}

// envelope wraps a design in a /v1/solve request body.
func envelope(d *design.Design, multilevel bool) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"design": `)
	if err := design.EncodeJSON(&b, d); err != nil {
		return nil, err
	}
	if multilevel {
		b.WriteString(`, "options": {"multilevel": true}}`)
	} else {
		b.WriteString(`, "options": {}}`)
	}
	return b.Bytes(), nil
}

// newPlan encodes the designs as request bodies and derives their keys
// the way the daemon does.
func newPlan(ds []*design.Design, multilevel bool) (*plan, error) {
	p := &plan{}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.Name] {
			return nil, fmt.Errorf("duplicate design name %q", d.Name)
		}
		seen[d.Name] = true
		body, err := envelope(d, multilevel)
		if err != nil {
			return nil, err
		}
		sp, _, err := serve.DecodeRequest(body)
		if err != nil {
			return nil, fmt.Errorf("design %s: %w", d.Name, err)
		}
		key, err := sp.Key()
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.keys = append(p.keys, key)
		p.names = append(p.names, d.Name)
	}
	return p, nil
}

// paperCorpus draws n designs (n a multiple of 2×synthetic.NumClasses)
// from a fixed pool of 2n designs of the paper's §V distribution,
// synthetic.Generate(corpusSeed, 2n). Within each class the pool is
// sorted by two properties of the design alone — mode count, which
// tracks solve time, then the modular baseline's total frames, which
// tracks the solved total — and cut into pairs of neighbours; the seed
// picks one design of every pair. Seeds therefore differ in half of
// their designs while the corpus keeps its cost profile: with plain
// sampling, the summed frames of 200 designs spread by about 20% from
// seed to seed, and the tail latency with them. The designs come back
// in pair order, class by class, cheapest first.
func paperCorpus(seed int64, n int) []*design.Design {
	type item struct {
		d              *design.Design
		modes, modular int
	}
	classes := int(synthetic.NumClasses)
	pool := synthetic.Generate(corpusSeed, 2*n)
	rng := rand.New(rand.NewSource(seed))
	var out []*design.Design
	for c := 0; c < classes; c++ {
		var items []item
		for i := c; i < len(pool); i += classes {
			_, sum := cost.Evaluate(partition.Modular(pool[i]))
			items = append(items, item{pool[i], len(pool[i].AllModes()), sum.Total})
		}
		sort.SliceStable(items, func(a, b int) bool {
			if items[a].modes != items[b].modes {
				return items[a].modes < items[b].modes
			}
			return items[a].modular < items[b].modular
		})
		for s := 0; s+1 < len(items); s += 2 {
			out = append(out, items[s+rng.Intn(2)].d)
		}
	}
	return out
}

// paperColdPlan: every design of the seed's paper corpus posted once
// with default options, split between the clients, so every request
// solves.
func paperColdPlan(seed int64) (*plan, error) {
	p, err := newPlan(paperCorpus(seed, paperDesigns), false)
	if err != nil {
		return nil, err
	}
	// Neighbouring pairs go to different clients, so both clients get the
	// same cost profile and finish together; a client left solving alone
	// would change both the wall time and the contention every latency
	// sees. Each client's order is then shuffled.
	rng := rand.New(rand.NewSource(seed))
	p.clients = make([][]call, numClients)
	for i := range p.bodies {
		c := i % numClients
		p.clients[c] = append(p.clients[c], call{node: 0, body: i, want: wantMiss})
	}
	for _, cl := range p.clients {
		rng.Shuffle(len(cl), func(i, j int) { cl[i], cl[j] = cl[j], cl[i] })
	}
	p.expectSolves = len(p.bodies)
	p.sample = sampleBodies(seed, len(p.bodies), 8)
	return p, nil
}

// warmRestartPlan: W paper-scale keys solved into the store during
// set-up, then a seeded Zipf replay over them against the restarted
// daemon. No timed request solves. The keys and their popularity ranks
// are the same for every seed — a key's frames and body size weigh in
// proportion to its traffic, so a seeded hot set would move every
// metric from seed to seed — and the seed draws the request sequence.
func warmRestartPlan(seed int64) (*plan, error) {
	ds := paperCorpus(corpusSeed, warmKeys)
	// Popularity rank is the position in this shuffled list, independent
	// of a design's cost.
	rand.New(rand.NewSource(corpusSeed)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	p, err := newPlan(ds, false)
	if err != nil {
		return nil, err
	}
	for i := range p.bodies {
		p.fill = append(p.fill, i)
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, warmZipfS, 1, uint64(len(p.bodies)-1))
	p.clients = make([][]call, numClients)
	for i := 0; i < warmRounds*warmRoundRequests; i++ {
		c := i % numClients
		p.clients[c] = append(p.clients[c], call{node: 0, body: int(z.Uint64()), want: wantWarm})
	}
	p.sample = sampleBodies(seed, len(p.bodies), 8)
	return p, nil
}

// Ring roles a ring-scale call is addressed to before resolve maps them
// to nodes: the key's first and second ring owner, and the one node
// that owns no replica.
const (
	roleOwner0 = iota
	roleOwner1
	roleOther
)

// roleOrders lists every order in which a design's three requests can
// visit the three roles.
var roleOrders = [6][3]int{
	{roleOwner0, roleOwner1, roleOther},
	{roleOwner0, roleOther, roleOwner1},
	{roleOwner1, roleOwner0, roleOther},
	{roleOwner1, roleOther, roleOwner0},
	{roleOther, roleOwner0, roleOwner1},
	{roleOther, roleOwner1, roleOwner0},
}

// ringCorpus returns the first n designs of the fixed ring-scale set:
// mid-scale designs of about ringModes modes, classes cycling.
func ringCorpus(n int) []*design.Design {
	rng := rand.New(rand.NewSource(corpusSeed))
	ds := make([]*design.Design, n)
	for i := range ds {
		c := synthetic.Class(i % int(synthetic.NumClasses))
		ds[i] = synthetic.HugeOne(rng, c, fmt.Sprintf("mid-%03d-%s", i, c), ringModes)
	}
	return ds
}

// ringScalePlan: mid-scale designs solved with "multilevel": true; each
// client takes its designs in order and requests each once at every
// node. The designs are a fixed set — multilevel solve times at this
// scale vary 2–10× between designs with no cheap predictor, so a seeded
// design set would move throughput and tail from seed to seed — and the
// seed deals them to the clients in order and picks each design's node
// order over ring roles, with every role order used equally often, so
// the mix of solves, replica hits and peer fills is the same for every
// seed and every port assignment.
func ringScalePlan(seed int64) (*plan, error) {
	ds := ringCorpus(ringDesigns)
	p, err := newPlan(ds, true)
	if err != nil {
		return nil, err
	}
	p.dealRoles(seed)
	p.expectSolves = len(ds)
	p.sample = sampleBodies(seed, len(p.bodies), 3)
	return p, nil
}

// dealRoles deals the plan's designs to the clients and addresses each
// design's three requests to the ring roles in a seeded order, every
// role order used equally often.
func (p *plan) dealRoles(seed int64) {
	n := len(p.bodies)
	rng := rand.New(rand.NewSource(seed))
	orders := make([]int, n)
	for i := range orders {
		orders[i] = i % len(roleOrders)
	}
	rng.Shuffle(len(orders), func(i, j int) { orders[i], orders[j] = orders[j], orders[i] })
	// The designs cycle through the §V classes, whose solve costs differ
	// several-fold, so dealing them in blocks of one per class gives both
	// clients the same class mix; each client's order is then shuffled.
	classes := int(synthetic.NumClasses)
	p.clients = make([][]call, numClients)
	for c := 0; c < numClients; c++ {
		var mine []int
		for i := 0; i < n; i++ {
			if (i/classes)%numClients == c {
				mine = append(mine, i)
			}
		}
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		for _, i := range mine {
			for _, role := range roleOrders[orders[i]] {
				p.clients[c] = append(p.clients[c], call{node: role, body: i})
			}
		}
	}
}

// Layer probe sizes: enough ring-scale designs for every role order,
// and a few paper designs for the direct engine.
const (
	probeRingDesigns  = 6
	probePaperDesigns = 4
)

// probeWorkload is the layer probe's topology: a three-node ring with
// the memory cache disabled, so every repeat request reads the store.
var probeWorkload = &workload{name: "layer-probe", nodes: ringNodes, requests: 3 * (probeRingDesigns + probePaperDesigns),
	rounds: 1, tailPct: tailPercentile(3 * (probeRingDesigns + probePaperDesigns)), cache: -1}

// probePlan is the small, fixed request list every traced run ends
// with. It reaches every layer the benchmark reports — direct and
// multilevel solves, store writes and reads, peer fetch and push — so a
// layer that the traced workload itself never reaches is still measured
// (see probeFallback). Each design is requested once at every node, as
// in ring-scale.
func probePlan(seed int64) (*plan, error) {
	ring, err := newPlan(ringCorpus(probeRingDesigns), true)
	if err != nil {
		return nil, err
	}
	paper, err := newPlan(paperCorpus(corpusSeed, 2*int(synthetic.NumClasses))[:probePaperDesigns], false)
	if err != nil {
		return nil, err
	}
	p := &plan{
		bodies:   append(ring.bodies, paper.bodies...),
		keys:     append(ring.keys, paper.keys...),
		names:    append(ring.names, paper.names...),
		warmHits: true,
	}
	p.dealRoles(seed)
	p.expectSolves = len(p.bodies)
	return p, nil
}

// resolve maps ring roles to node indices through the ring the daemons
// will build from urls, and predicts each call's X-Cache. A first
// request solves and replicates to the key's other owners; a later
// request is a memory hit on a node that solved, was pushed or fetched
// the key, and a peer fill anywhere else (see predictCalls).
func (p *plan) resolve(urls []string) error {
	ring, err := cluster.NewRing(urls, 0, ringSeed)
	if err != nil {
		return err
	}
	node := make(map[string]int, len(urls))
	for i, u := range urls {
		node[u] = i
	}
	for c := range p.clients {
		for i := range p.clients[c] {
			cl := &p.clients[c][i]
			owners := ring.Owners(p.keys[cl.body], ringReplicas)
			if len(owners) != 2 {
				return fmt.Errorf("ring gave %d owners, want 2", len(owners))
			}
			switch cl.node {
			case roleOwner0, roleOwner1:
				cl.node = node[owners[cl.node]]
			default:
				cl.node = -1
				for j := range urls {
					if urls[j] != owners[0] && urls[j] != owners[1] {
						cl.node = j
					}
				}
			}
		}
	}
	p.expectPeerHits = predictCalls(ring, urls, p.keys, p.clients)
	if p.warmHits {
		for c := range p.clients {
			for i := range p.clients[c] {
				if p.clients[c][i].want == wantHit {
					p.clients[c][i].want = wantWarm
				}
			}
		}
	}
	return nil
}

// predictCalls fills in the X-Cache each ring call should get and
// returns the number of peer fills, which is cluster.peer_hits summed
// over nodes. It follows the serving ladder: a key no node holds is
// solved where it is asked and pushed to its other Ring.Owners; a node
// holding it answers from memory (the default LRU outlasts the run); a
// node without it fetches from an owner and keeps the copy.
func predictCalls(ring *cluster.Ring, urls []string, keys []string, clients [][]call) int {
	holders := make([]map[int]bool, len(keys))
	peer := 0
	for c := range clients {
		for i := range clients[c] {
			cl := &clients[c][i]
			h := holders[cl.body]
			switch {
			case h == nil:
				cl.want = wantMiss
				h = map[int]bool{cl.node: true}
				for _, o := range ring.Owners(keys[cl.body], ringReplicas) {
					for j, u := range urls {
						if u == o {
							h[j] = true
						}
					}
				}
				holders[cl.body] = h
			case h[cl.node]:
				cl.want = wantHit
			default:
				cl.want = wantPeer
				h[cl.node] = true
				peer++
			}
		}
	}
	return peer
}

// sampleBodies picks k distinct body indices out of n, seeded.
func sampleBodies(seed int64, n, k int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(n)
	if k > n {
		k = n
	}
	s := append([]int(nil), perm[:k]...)
	sort.Ints(s)
	return s
}
