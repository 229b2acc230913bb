package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupBoots is how many times a run boots its daemons to time set-up;
// setup_s is the median. The last boot serves the timed phase.
const setupBoots = 21

// ringSecret is the shared peer secret of the benchmark's rings.
const ringSecret = "servebench-ring-secret"

// metric is one named measurement of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is a run's result line.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	// fromProbe names the metrics measured on the layer probe (see
	// runTraced).
	fromProbe map[string]bool
}

// storeDirs returns the per-node store directories of a run.
func storeDirs(work string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(work, fmt.Sprintf("store-%d", i))
	}
	return dirs
}

// resetDirs empties and recreates dirs.
func resetDirs(dirs []string) error {
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// daemonArgs is node i's prpartd command line.
func daemonArgs(w *workload, urls, dirs []string, i int) []string {
	args := []string{"-addr", strings.TrimPrefix(urls[i], "http://"), "-store", dirs[i]}
	if w.cache != 0 {
		args = append(args, "-cache", strconv.Itoa(w.cache))
	}
	if w.nodes > 1 {
		args = append(args,
			"-peers", strings.Join(urls, ","),
			"-self", urls[i],
			"-peer-secret", ringSecret,
			"-ring-seed", strconv.Itoa(ringSeed),
			"-replicas", strconv.Itoa(ringReplicas))
	}
	return args
}

// fill solves the plan's fill set on node 0, split between the clients,
// and records each body as the first the run received for its key.
func fill(ctx context.Context, hc *http.Client, urls []string, p *plan, first map[int][]byte) error {
	calls := make([][]call, numClients)
	for i, b := range p.fill {
		calls[i%numClients] = append(calls[i%numClients], call{node: 0, body: b, want: wantMiss})
	}
	replies := runClients(ctx, hc, urls, p.bodies, calls, nil)
	hc.CloseIdleConnections()
	if _, failed, problems := checkReplies(calls, replies, first); failed > 0 {
		return fmt.Errorf("filling the store: %d of %d solves failed: %v", failed, len(p.fill), problems)
	}
	return nil
}

// runMeasured runs the workload against prpartd child processes built
// from the tree, so CPU time and RSS belong to the daemons alone.
func runMeasured(ctx context.Context, w *workload, p *plan, bin, work string) (*outcome, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	urls, err := freeURLs(w.nodes)
	if err != nil {
		return nil, err
	}
	if w.nodes > 1 {
		if err := p.resolve(urls); err != nil {
			return nil, err
		}
	}
	dirs := storeDirs(work, w.nodes)
	args := make([][]string, w.nodes)
	for i := range args {
		args[i] = daemonArgs(w, urls, dirs, i)
	}
	first := map[int][]byte{}
	out := &outcome{}
	if err := resetDirs(dirs); err != nil {
		return nil, err
	}

	// Untimed set-up: solve the fill set into the store.
	if len(p.fill) > 0 {
		ds, _, err := bootCluster(hc, bin, urls, args)
		if err != nil {
			return nil, err
		}
		err = fill(ctx, hc, urls, p, first)
		stopAll(ds)
		if err != nil {
			return nil, err
		}
	}

	// setup_s: the median boot-to-ready time. The first boot is not
	// timed: it creates a cold workload's empty store layout, so the
	// timed boots measure the daemon opening its store rather than the
	// disk creating directories. Warm-restart replays the filled ledger.
	var boots []float64
	var ds []*daemon
	defer func() { stopAll(ds) }()
	for b := 0; b <= setupBoots; b++ {
		if b > 0 {
			stopAll(ds)
			ds = nil
			hc.CloseIdleConnections()
		}
		var boot time.Duration
		ds, boot, err = bootCluster(hc, bin, urls, args)
		if err != nil {
			return nil, err
		}
		if b > 0 {
			boots = append(boots, boot.Seconds())
		}
	}

	// Timed phase, round by round; correctness is judged after it. With
	// several rounds, each rate and percentile is the median over rounds;
	// CPU time is summed, because /proc counts it in 10 ms ticks.
	prev := runtime.GOMAXPROCS(1)
	rs := sampleRSS(ds)
	defer rs.finish()
	var p50, tail, rps []float64
	var frames int64
	var cpu time.Duration
	for r := 0; r < w.rounds; r++ {
		calls := roundCalls(p.clients, r, w.rounds)
		cpu0, err := daemonsCPU(ds)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		replies := runClients(ctx, hc, urls, p.bodies, calls, nil)
		wall := time.Since(t0)
		cpu1, err := daemonsCPU(ds)
		if err != nil {
			return nil, err
		}
		bad, failed, problems := checkReplies(calls, replies, first)
		out.failed += failed
		out.problems = append(out.problems, problems...)
		lats := latencies(replies, bad)
		out.attempted += len(lats)
		ok := float64(len(lats) - failed)
		p50 = append(p50, percentile(lats, 50))
		tail = append(tail, percentile(lats, float64(w.tailPct)))
		rps = append(rps, ok/wall.Seconds())
		cpu += cpu1 - cpu0
		f, err := reconFrames(replies)
		if err != nil {
			return nil, err
		}
		frames += f
	}
	rss, err := rs.finish()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	vars := make([]map[string]int64, len(ds))
	for i, d := range ds {
		if vars[i], err = debugVars(ctx, hc, d.url); err != nil {
			return nil, err
		}
	}
	stopAll(ds)
	ds = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.problems = append(out.problems, checkSample(ctx, p, first)...)
	out.problems = append(out.problems, checkShape(w, p, sumShape(vars))...)

	out.metrics = []metric{
		{"setup_s", "s", median(boots)},
		{"latency_p50_ms", "ms", median(p50)},
		{"latency_tail_ms", "ms", median(tail)},
		{"throughput_rps", "req/s", median(rps)},
		{"cpu_ms_per_req", "ms", ms(cpu) / float64(max(out.attempted-out.failed, 1))},
		{"rss_p90_mb", "MiB", percentile(rss, 90)},
		{"success_frac", "ratio", float64(out.attempted-out.failed) / float64(out.attempted)},
		{"recon_frames_total", "frames", float64(frames)},
	}
	return out, nil
}

// rssEvery is how often the timed phase samples the daemons' resident
// set size.
const rssEvery = 20 * time.Millisecond

// rssSampler records, every rssEvery, the largest resident set size
// among the daemons, in MiB.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64
	err     error
}

// sampleRSS starts sampling the daemons' resident set size.
func sampleRSS(ds []*daemon) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			var top int64
			for _, d := range ds {
				rss, err := procRSS(d.cmd.Process.Pid)
				if err != nil {
					s.err = err
					return
				}
				top = max(top, rss)
			}
			s.samples = append(s.samples, float64(top)/(1<<20))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples. It
// may be called more than once.
func (s *rssSampler) finish() ([]float64, error) {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.samples, s.err
}

// roundCalls is round r of n of every client's call list.
func roundCalls(clients [][]call, r, n int) [][]call {
	out := make([][]call, len(clients))
	for c, cl := range clients {
		out[c] = cl[r*len(cl)/n : (r+1)*len(cl)/n]
	}
	return out
}

// daemonsCPU reads the CPU time every daemon has used so far, summed.
func daemonsCPU(ds []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range ds {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// latencies returns every call's client-observed latency in ms; a call
// that failed counts as missing any latency limit (+Inf).
func latencies(replies [][]reply, bad [][]bool) []float64 {
	var lats []float64
	for c := range replies {
		for i := range replies[c] {
			if bad[c][i] {
				lats = append(lats, math.Inf(1))
			} else {
				lats = append(lats, ms(replies[c][i].lat))
			}
		}
	}
	return lats
}
