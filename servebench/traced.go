package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"prpart/internal/basepart"
	"prpart/internal/cluster"
	"prpart/internal/connmat"
	"prpart/internal/cover"
	"prpart/internal/obs"
	"prpart/internal/serve"
	"prpart/internal/store"
)

// storeReplays is how many times store.Open is replayed per directory.
const storeReplays = 5

// replayCalls bounds how many of each client's requests the decode and
// key replays cover: every request of paper-cold and ring-scale, the
// first rounds of warm-restart's long replay.
const replayCalls = 2000

// node is one in-process daemon of the traced run, assembled the way
// cmd/prpartd assembles it but with the seams wrapped.
type node struct {
	url    string
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	peerRT *http.Transport
	served chan struct{}
}

// bootNodes starts one in-process daemon per listener with prpartd's
// defaults and the workload's flags.
func (t *tracer) bootNodes(w *workload, lns []net.Listener, urls, dirs []string) ([]*node, error) {
	var ns []*node
	fail := func(err error) ([]*node, error) {
		stopNodes(ns)
		for _, ln := range lns[len(ns):] {
			ln.Close()
		}
		return nil, err
	}
	for i, ln := range lns {
		o := obs.New()
		st, err := store.Open(store.Config{Dir: dirs[i], FS: &tracedFS{base: store.OSFS(), t: t}, Obs: o})
		if err != nil {
			return fail(err)
		}
		n := &node{url: urls[i], st: st, served: make(chan struct{})}
		cfg := serve.Config{
			CacheEntries:   w.cache,
			DefaultTimeout: 30 * time.Second, // prpartd's -timeout default
			Obs:            o,
			Store:          st,
			Solver:         t.solve,
		}
		if w.nodes > 1 {
			n.peerRT = http.DefaultTransport.(*http.Transport).Clone()
			cfg.Cluster, err = cluster.New(cluster.Config{
				Self:      urls[i],
				Peers:     urls,
				Secret:    ringSecret,
				Seed:      ringSeed,
				Replicas:  ringReplicas,
				Transport: &tracedTransport{base: n.peerRT, t: t},
				Obs:       o,
			})
			if err != nil {
				st.Close()
				return fail(err)
			}
		}
		n.srv = serve.New(cfg)
		n.hs = &http.Server{Handler: t.handler(n.srv.Handler())}
		go func() {
			defer close(n.served)
			n.hs.Serve(ln)
		}()
		ns = append(ns, n)
	}
	return ns, nil
}

func stopNodes(ns []*node) {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	for _, n := range ns {
		if err := n.srv.Shutdown(ctx); err != nil {
			n.srv.Close()
		}
		n.hs.Shutdown(ctx)
		<-n.served
		n.st.Close()
		if n.peerRT != nil {
			n.peerRT.CloseIdleConnections()
		}
	}
}

// probeFallback lists the per-layer metrics of layers a workload's own
// requests may never reach: paper-cold and warm-restart run no
// multilevel solve and no peer call, warm-restart solves nothing, and
// ring-scale never reads the store or solves a design small enough for
// the direct engine. Where the workload's value is 0 for want of
// samples, runTraced reports the layer probe's figure instead, so every
// per-layer figure is a measurement of its layer.
var probeFallback = map[string]bool{
	"jobs.presolve_wait_ms.p50": true, "jobs.presolve_wait_ms.tail": true,
	"core.run_ms.p50": true, "core.run_ms.tail": true, "core.run_ms.total": true,
	"serve.render_us": true, "basepart.run_ms": true, "cover.sets_ms": true,
	"partition.phase.cluster_ms": true, "partition.phase.search_ms": true, "partition.phase.refine_ms": true,
	"partition.candidate_sets": true, "partition.states": true, "partition.moves_evaluated": true,
	"partition.delta_cache_hit_frac": true,
	"multilevel.phase.coarsen_ms":    true, "multilevel.phase.coarse_solve_ms": true, "multilevel.phase.refine_ms": true,
	"multilevel.levels": true, "multilevel.refine_states": true,
	"store.put_ms": true, "store.syncs_per_put": true, "store.bytes_written_per_put": true, "store.get_us": true,
	"cluster.fetch_ms": true, "cluster.push_ms": true, "cluster.peer_hit_frac": true, "cluster.replicas_pushed": true,
}

// runTraced runs the workload's request list traced, then the layer
// probe (probePlan), and reports the workload's per-layer metrics with
// the probe's standing in for layers the workload does not reach.
// Spans go to spansPath and spansPath with a "-probe" suffix.
func runTraced(ctx context.Context, w *workload, p *plan, seed int64, dir, spansPath string) (*outcome, error) {
	out, err := tracePass(ctx, w, p, filepath.Join(dir, "run"), spansPath+".jsonl")
	if err != nil {
		return nil, err
	}
	pp, err := probePlan(seed)
	if err != nil {
		return nil, err
	}
	probe, err := tracePass(ctx, probeWorkload, pp, filepath.Join(dir, "probe"), spansPath+"-probe.jsonl")
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	for _, pr := range probe.problems {
		out.problems = append(out.problems, "layer probe: "+pr)
	}
	if probe.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("layer probe: %d of %d calls failed", probe.failed, probe.attempted))
	}
	fromProbe := map[string]float64{}
	for _, m := range probe.metrics {
		fromProbe[m.name] = m.value
	}
	out.fromProbe = map[string]bool{}
	for i, m := range out.metrics {
		if probeFallback[m.name] && m.value == 0 {
			out.metrics[i].value = fromProbe[m.name]
			out.fromProbe[m.name] = true
		}
	}
	return out, nil
}

// tracePass runs a request list against in-process daemons whose seams
// are wrapped, then derives per-layer metrics from the spans, from
// replays of layer functions on the run's own inputs and outputs, and
// from the daemons' /debug/vars instruments. spansPath receives every
// span as JSON lines.
func tracePass(ctx context.Context, w *workload, p *plan, dir, spansPath string) (*outcome, error) {
	t := newTracer()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	dirs := storeDirs(dir, w.nodes)
	if err := resetDirs(dirs); err != nil {
		return nil, err
	}
	first := map[int][]byte{}

	// Untimed set-up, as in the measured run: fill the store untraced,
	// then restart on it.
	if len(p.fill) > 0 {
		lns, urls, err := listenN(w.nodes)
		if err != nil {
			return nil, err
		}
		ns, err := t.bootNodes(w, lns, urls, dirs)
		if err != nil {
			return nil, err
		}
		err = fill(ctx, hc, urls, p, first)
		stopNodes(ns)
		if err != nil {
			return nil, err
		}
	}

	lns, urls, err := listenN(w.nodes)
	if err != nil {
		return nil, err
	}
	if w.nodes > 1 {
		if err := p.resolve(urls); err != nil {
			return nil, err
		}
	}
	ns, err := t.bootNodes(w, lns, urls, dirs)
	if err != nil {
		return nil, err
	}
	type ids struct{ req, span int64 }
	callIDs := make([][]ids, len(p.clients))
	for c := range callIDs {
		callIDs[c] = make([]ids, len(p.clients[c]))
	}
	tag := func(c, i int, cl call, req *http.Request) {
		id := ids{req: t.r.newID(), span: t.r.newID()}
		callIDs[c][i] = id
		t.r.mu.Lock()
		t.r.designs[p.names[cl.body]] = id.req
		t.r.mu.Unlock()
		req.Header.Set(hdrReq, strconv.FormatInt(id.req, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(id.span, 10))
	}
	replies := runClients(ctx, hc, urls, p.bodies, p.clients, tag)
	vars := make([]map[string]int64, len(ns))
	for i, n := range ns {
		if vars[i], err = debugVars(ctx, hc, n.url); err != nil {
			stopNodes(ns)
			return nil, err
		}
	}
	stopNodes(ns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for c := range p.clients {
		for i := range p.clients[c] {
			r := &replies[c][i]
			t.r.add(span{ID: callIDs[c][i].span, Req: callIDs[c][i].req, Name: "client",
				Start: r.start.Sub(t.r.epoch), End: r.start.Sub(t.r.epoch) + r.lat, Cache: r.cache})
		}
	}
	if err := writeSpans(spansPath, t.r.spans); err != nil {
		return nil, err
	}

	out := &outcome{}
	bad, failed, problems := checkReplies(p.clients, replies, first)
	out.failed, out.problems = failed, problems
	for _, cl := range p.clients {
		out.attempted += len(cl)
	}
	out.problems = append(out.problems, checkSample(ctx, p, first)...)
	sh := sumShape(vars)
	out.problems = append(out.problems, checkShape(w, p, sh)...)

	spanMetrics, spanProblems := analyzeSpans(w, t.r.spans, replies, bad)
	out.problems = append(out.problems, spanProblems...)
	out.metrics = append(out.metrics, spanMetrics...)
	replayed, err := t.replays(p, first, dirs)
	if err != nil {
		return nil, err
	}
	out.metrics = append(out.metrics, replayed...)
	out.metrics = append(out.metrics, instrumentMetrics(vars)...)
	out.metrics = append(out.metrics, sh.metrics(p)...)
	return out, nil
}

// analyzeSpans turns the recorded spans into per-layer metrics and
// checks that every child span lies inside the handler it is
// attributed to.
func analyzeSpans(w *workload, spans []span, replies [][]reply, bad [][]bool) ([]metric, []string) {
	var problems []string
	children := map[int64][]span{}
	byName := map[string][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		byName[s.Name] = append(byName[s.Name], s)
	}
	var handlerUs, httpUs, selfUs, share, waitMs, runMs []float64
	var runTotal time.Duration
	for _, cs := range byName["client"] {
		var h *span
		for i, c := range children[cs.ID] {
			if c.Name == "serve.handler" {
				h = &children[cs.ID][i]
			}
		}
		if h == nil {
			problems = append(problems, fmt.Sprintf("request %d has no handler span", cs.Req))
			continue
		}
		kids := children[h.ID]
		self, covered, outside := selfTime(*h, kids)
		if outside > 0 {
			problems = append(problems, fmt.Sprintf("request %d: %d child spans reach outside the handler", cs.Req, outside))
		}
		if self+covered != h.dur() {
			problems = append(problems, fmt.Sprintf("request %d: child spans and unattributed time do not add up to the handler time", cs.Req))
		}
		handlerUs = append(handlerUs, us(h.dur()))
		httpUs = append(httpUs, us(cs.dur()-h.dur()))
		selfUs = append(selfUs, us(self))
		if h.dur() > 0 {
			share = append(share, float64(self)/float64(h.dur()))
		}
		for _, k := range kids {
			if k.Name == "core.run" {
				waitMs = append(waitMs, ms(k.Start-h.Start))
				runMs = append(runMs, ms(k.dur()))
				runTotal += k.dur()
			}
		}
	}
	durs := func(name string, unit func(time.Duration) float64) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, unit(s.dur()))
		}
		return xs
	}
	var puts, syncs, written int64
	for _, s := range byName["store.put"] {
		puts++
		syncs += s.Syncs
		written += s.Bytes
	}
	counts := map[string]int{}
	var lats []float64
	total := 0
	for c := range replies {
		for i := range replies[c] {
			total++
			counts[replies[c][i].cache]++
			if !bad[c][i] {
				lats = append(lats, ms(replies[c][i].lat))
			}
		}
	}
	frac := func(k string) float64 { return float64(counts[k]) / float64(max(total, 1)) }
	tail := func(xs []float64) float64 { return percentile(xs, float64(tailPercentile(len(xs)))) }
	return []metric{
		{"traced.latency_p50_ms", "ms", percentile(lats, 50)},
		{"serve.handler_us.p50", "us", percentile(handlerUs, 50)},
		{"serve.handler_us.tail", "us", percentile(handlerUs, float64(w.tailPct))},
		{"serve.http_us", "us", percentile(httpUs, 50)},
		{"serve.unattributed_us", "us", percentile(selfUs, 50)},
		{"serve.unattributed_share", "ratio", percentile(share, 50)},
		{"serve.hit_frac", "ratio", frac("hit")},
		{"serve.store_frac", "ratio", frac("store")},
		{"serve.peer_frac", "ratio", frac("peer")},
		{"serve.miss_frac", "ratio", frac("miss")},
		{"jobs.presolve_wait_ms.p50", "ms", percentile(waitMs, 50)},
		{"jobs.presolve_wait_ms.tail", "ms", tail(waitMs)},
		{"core.run_ms.p50", "ms", percentile(runMs, 50)},
		{"core.run_ms.tail", "ms", tail(runMs)},
		{"core.run_ms.total", "ms", ms(runTotal)},
		{"store.put_ms", "ms", percentile(durs("store.put", ms), 50)},
		{"store.syncs_per_put", "count", float64(syncs) / float64(max(puts, 1))},
		{"store.bytes_written_per_put", "B", float64(written) / float64(max(puts, 1))},
		{"store.get_us", "us", percentile(durs("store.get", us), 50)},
		{"cluster.fetch_ms", "ms", percentile(durs("cluster.fetch", ms), 50)},
		{"cluster.push_ms", "ms", percentile(durs("cluster.push", ms), 50)},
	}, problems
}

// replays times layer functions on the run's own inputs and outputs,
// outside any request.
func (t *tracer) replays(p *plan, first map[int][]byte, dirs []string) ([]metric, error) {
	var decode, key, render, codec, open []float64
	for c := range p.clients {
		for _, cl := range p.clients[c][:min(len(p.clients[c]), replayCalls)] {
			t0 := time.Now()
			sp, _, err := serve.DecodeRequest(p.bodies[cl.body])
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := sp.Key(); err != nil {
				return nil, err
			}
			decode = append(decode, us(t1.Sub(t0)))
			key = append(key, us(time.Since(t1)))
		}
	}
	var basepartT, coverT time.Duration
	for _, s := range t.solved {
		var b bytes.Buffer
		t0 := time.Now()
		if err := serve.WriteResult(&b, serve.BuildResult(s.res, nil)); err != nil {
			return nil, err
		}
		render = append(render, us(time.Since(t0)))
		if s.multilevel {
			continue
		}
		m := connmat.New(s.res.Design)
		t0 = time.Now()
		bres, err := basepart.Run(m)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		cover.Sets(cover.Order(bres.Partitions), m)
		basepartT += t1.Sub(t0)
		coverT += time.Since(t1)
	}
	for b, body := range first {
		t0 := time.Now()
		frame, err := cluster.EncodePeerBody(cluster.Body{Found: true, Key: p.keys[b], Data: body})
		if err != nil {
			return nil, err
		}
		got, err := cluster.DecodePeerBody(frame)
		if err != nil {
			return nil, err
		}
		codec = append(codec, us(time.Since(t0)))
		if !bytes.Equal(got.Data, body) {
			return nil, errors.New("peer codec round trip changed a body")
		}
	}
	for _, d := range dirs {
		for i := 0; i < storeReplays; i++ {
			t0 := time.Now()
			st, err := store.Open(store.Config{Dir: d})
			if err != nil {
				return nil, err
			}
			open = append(open, ms(time.Since(t0)))
			st.Close()
		}
	}
	return []metric{
		{"serve.decode_us", "us", percentile(decode, 50)},
		{"serve.key_us", "us", percentile(key, 50)},
		{"serve.render_us", "us", percentile(render, 50)},
		{"basepart.run_ms", "ms", ms(basepartT)},
		{"cover.sets_ms", "ms", ms(coverT)},
		{"store.open_ms", "ms", percentile(open, 50)},
		{"cluster.codec_us", "us", percentile(codec, 50)},
	}, nil
}

// instrumentMetrics reads the solver's and the peer layer's own
// instruments, summed over nodes.
func instrumentMetrics(vars []map[string]int64) []metric {
	sum := func(name string) float64 {
		var s int64
		for _, v := range vars {
			s += v[name]
		}
		return float64(s)
	}
	timer := func(name string) float64 { return sum(name+"_ns") / 1e6 }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	return []metric{
		{"partition.phase.cluster_ms", "ms", timer("partition.phase.cluster")},
		{"partition.phase.search_ms", "ms", timer("partition.phase.search")},
		{"partition.phase.refine_ms", "ms", timer("partition.phase.refine")},
		{"partition.candidate_sets", "count", sum("partition.candidate_sets")},
		{"partition.states", "count", sum("partition.states")},
		{"partition.moves_evaluated", "count", sum("partition.moves_evaluated")},
		{"partition.delta_cache_hit_frac", "ratio", ratio(sum("partition.delta_cache_hits"), sum("partition.delta_cache_misses"))},
		{"multilevel.phase.coarsen_ms", "ms", timer("multilevel.phase.coarsen")},
		{"multilevel.phase.coarse_solve_ms", "ms", timer("multilevel.phase.coarse_solve")},
		{"multilevel.phase.refine_ms", "ms", timer("multilevel.phase.refine")},
		{"multilevel.levels", "count", sum("multilevel.levels")},
		{"multilevel.refine_states", "count", sum("multilevel.refine_states")},
		{"cluster.peer_hit_frac", "ratio", ratio(sum("cluster.peer_hits"), sum("cluster.peer_misses"))},
		{"cluster.replicas_pushed", "count", sum("cluster.replicas_pushed")},
		{"cluster.peer_errors", "count", sum("cluster.peer_errors")},
	}
}
