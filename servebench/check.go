package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"prpart/internal/core"
	"prpart/internal/serve"
)

// checkReplies judges every timed call: it must be a 200 with the
// predicted X-Cache, and its body must equal, byte for byte, the first
// body the run received for that request (from the set-up fill, or the
// call that solved it). first is updated with bodies seen for the first
// time. It returns which calls failed, how many, and a few examples.
func checkReplies(calls [][]call, replies [][]reply, first map[int][]byte) (bad [][]bool, failed int, problems []string) {
	bad = make([][]bool, len(calls))
	for c := range calls {
		bad[c] = make([]bool, len(calls[c]))
		for i, cl := range calls[c] {
			r := &replies[c][i]
			why := ""
			switch {
			case r.err != nil:
				why = r.err.Error()
			case !r.ok(cl.want):
				why = fmt.Sprintf("status %d X-Cache %q, want 200 %q: %.200s", r.status, r.cache, cl.want, r.body)
			default:
				if f, seen := first[cl.body]; !seen {
					first[cl.body] = r.body
				} else if !bytes.Equal(f, r.body) {
					why = "body differs from the first body received for its key"
				}
			}
			if why != "" {
				bad[c][i] = true
				failed++
				if len(problems) < 5 {
					problems = append(problems, fmt.Sprintf("client %d call %d (body %d): %s", c, i, cl.body, why))
				}
			}
		}
	}
	return bad, failed, problems
}

// rederive solves a request body in-process exactly as the daemon does
// (serve.DecodeRequest, core.RunContext with the daemon's default serial
// search, serve.BuildResult, serve.WriteResult) and returns the bytes a
// correct daemon must have served.
func rederive(ctx context.Context, body []byte) ([]byte, error) {
	sp, _, err := serve.DecodeRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := core.RunContext(ctx, sp.Design, sp.CoreOptions(1, nil))
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := serve.WriteResult(&b, serve.BuildResult(res, nil)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// checkSample re-derives the plan's sample in-process, numClients at a
// time, and compares each against the body the run served for it.
func checkSample(ctx context.Context, p *plan, first map[int][]byte) []string {
	var (
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
		sem      = make(chan struct{}, numClients)
	)
	for _, b := range p.sample {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			got, err := rederive(ctx, p.bodies[b])
			msg := ""
			switch served, ok := first[b]; {
			case err != nil:
				msg = fmt.Sprintf("re-deriving %s: %v", p.names[b], err)
			case !ok:
				msg = fmt.Sprintf("sampled design %s was never served", p.names[b])
			case !bytes.Equal(got, served):
				msg = fmt.Sprintf("served body for %s differs from the in-process solve", p.names[b])
			}
			if msg != "" {
				mu.Lock()
				problems = append(problems, msg)
				mu.Unlock()
			}
		}(b)
	}
	wg.Wait()
	sort.Strings(problems)
	return problems
}

// shape is the workload-shape evidence read from the daemons'
// instruments after the timed phase, summed over nodes.
type shape struct {
	solves, cacheHits, peerHits, peerErrors, rejected int64
}

func sumShape(vars []map[string]int64) shape {
	var s shape
	for _, v := range vars {
		s.solves += v["serve.solves"]
		s.cacheHits += v["serve.cache_hits"]
		s.peerHits += v["cluster.peer_hits"]
		s.peerErrors += v["cluster.peer_errors"]
		for name, n := range v {
			if strings.HasPrefix(name, "serve.rejected_") {
				s.rejected += n
			}
		}
	}
	return s
}

// checkShape fails a run whose daemons did not do what the workload
// claims to exercise.
func checkShape(w *workload, p *plan, s shape) []string {
	var problems []string
	expect := func(what string, got, want int64) {
		if got != want {
			problems = append(problems, fmt.Sprintf("%s: %s = %d, want %d", w.name, what, got, want))
		}
	}
	expect("serve.solves", s.solves, int64(p.expectSolves))
	expect("serve.rejected_*", s.rejected, 0)
	if w.name == "paper-cold" {
		expect("serve.cache_hits", s.cacheHits, 0)
	}
	if w.nodes > 1 {
		expect("cluster.peer_hits", s.peerHits, int64(p.expectPeerHits))
		expect("cluster.peer_errors", s.peerErrors, 0)
	}
	return problems
}

func (s shape) metrics(p *plan) []metric {
	return []metric{
		{"shape.solves", "count", float64(s.solves)},
		{"shape.cache_hits", "count", float64(s.cacheHits)},
		{"shape.peer_hits", "count", float64(s.peerHits)},
		{"shape.peer_hits_predicted", "count", float64(p.expectPeerHits)},
		{"shape.rejected", "count", float64(s.rejected)},
	}
}

// reconFrames sums totalFrames, the paper's objective, over every 200
// body of the timed phase.
func reconFrames(replies [][]reply) (int64, error) {
	var total int64
	for c := range replies {
		for i := range replies[c] {
			r := &replies[c][i]
			if r.err != nil || r.status != 200 {
				continue
			}
			var res struct {
				Total int64 `json:"totalFrames"`
			}
			if err := json.Unmarshal(r.body, &res); err != nil {
				return 0, fmt.Errorf("decoding a result body: %w", err)
			}
			total += res.Total
		}
	}
	return total, nil
}
