// Command servebench is the repository's serving benchmark: it drives
// prpartd over loopback HTTP with closed-loop clients, checks every
// response, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics from a traced in-process run) as one JSON line.
//
// Run it through run.sh, which builds prpartd and this program from the
// checkout first:
//
//	bash servebench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the layers each metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-cold, warm-restart or ring-scale")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same request list")
	seconds := fs.Int("seconds", 0, "nominal run length from BENCHMARK.json; every run sends its workload's fixed request list")
	trace := fs.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced in-process run, per-layer metrics")
	bin := fs.String("prpartd", "", "prpartd binary built from this tree")
	work := fs.String("work", "", "scratch directory for stores (removed afterwards)")
	spans := fs.String("spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" || *spans == "" {
		fmt.Fprintln(stderr, "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 --prpartd BIN --work DIR --spans DIR")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	out, err := runWorkload(ctx, w, *seed, *trace == 1, *bin, *work, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]resultValue{},
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: %d requests, %d failed, tail = p%d\n",
		w.name, *seed, *trace, out.attempted, out.failed, w.tailPct)
	for _, m := range out.metrics {
		from := ""
		if out.fromProbe[m.name] {
			from = " (layer probe)"
		}
		fmt.Fprintf(stdout, "  %-36s %14.4f %s%s\n", m.name, m.value, m.unit, from)
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity; a failed run's tail reads as the
			// largest number instead (and correct is false).
			v = math.MaxFloat64
		}
		res.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "  FAIL:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload builds the plan from the seed and runs it in a fresh
// scratch directory, which it removes afterwards.
func runWorkload(ctx context.Context, w *workload, seed int64, traced bool, bin, work, spans string) (*outcome, error) {
	p, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("building inputs: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if traced {
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return nil, err
		}
		return runTraced(ctx, w, p, seed, dir, filepath.Join(spans, fmt.Sprintf("%s-seed%d", w.name, seed)))
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	return runMeasured(ctx, w, p, bin, dir)
}
