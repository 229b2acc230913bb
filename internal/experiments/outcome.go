// Package experiments reproduces every table and figure of the paper's
// evaluation (§V): the worked example's base partitions (Table I), the
// wireless video receiver case study (Tables II-V), and the 1000-design
// synthetic sweep (Figs. 7-9 plus the scalar claims). The drivers are
// shared by the benchmark harness (bench_test.go) and cmd/prbench.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"prpart/internal/cost"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/partition"
	"prpart/internal/scheme"
)

// Outcome is the result of evaluating all three schemes for one design,
// following the paper's §V procedure: the single-region scheme determines
// the smallest candidate FPGA; the proposed algorithm is run there and
// re-run on the next larger device until it finds a feasible scheme.
type Outcome struct {
	// Index is the design's position in the corpus.
	Index int
	// Name echoes the design name.
	Name string

	// Proposed, Modular, Single are the scheme metrics (frames).
	Proposed, Modular, Single cost.Summary

	// ProposedDev, ModularDev, SingleDev are the smallest devices each
	// scheme fits (by the sweep-catalog ordering).
	ProposedDev, ModularDev, SingleDev string

	// Upsized reports that the proposed algorithm had to move past the
	// single-region minimum device (the paper's 201/1000).
	Upsized bool
	// SmallerThanModular reports that the proposed scheme fits a smaller
	// device than the modular scheme requires (the paper's 13/1000).
	SmallerThanModular bool
	// FallbackSingle reports that no multi-region scheme fit any catalog
	// device and the single-region scheme was used as the proposed
	// result.
	FallbackSingle bool

	// ProposedScheme is retained for detailed reporting.
	ProposedScheme *scheme.Scheme
}

// devIndex returns the position of a device in the sweep catalog.
func devIndex(list []*device.Device, name string) int {
	for i, d := range list {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// smallestFor returns the first device in list that fits the scheme.
func smallestFor(list []*device.Device, s *scheme.Scheme) (*device.Device, error) {
	need := s.TotalResources()
	for _, d := range list {
		if need.FitsIn(d.Capacity) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("experiments: scheme %s (%v) exceeds the largest sweep device", s.Name, need)
}

// Solver abstracts the partitioning engine the sweep drives: the direct
// search engine (partition.Solve) or the multilevel chain
// (multilevel.Solver). The budget arrives inside opts.
type Solver func(d *design.Design, opts partition.Options) (*partition.Result, error)

// EvaluateDesign runs the full §V procedure for one design against the
// sweep catalog with the standard engine. When opts.Obs is set it
// maintains counters experiments.designs, experiments.upsized,
// experiments.fallback_single and experiments.smaller_than_modular, and
// duration histogram experiments.evaluate.
func EvaluateDesign(index int, d *design.Design, opts partition.Options) (*Outcome, error) {
	return EvaluateDesignSolver(index, d, opts, partition.Solve)
}

// EvaluateDesignSolver is EvaluateDesign with an injected engine.
func EvaluateDesignSolver(index int, d *design.Design, opts partition.Options, solve Solver) (*Outcome, error) {
	stopEval := opts.Obs.Histogram("experiments.evaluate").Time()
	defer stopEval()
	list := device.SweepCatalog()
	out := &Outcome{Index: index, Name: d.Name}

	single := partition.SingleRegion(d)
	modular := partition.Modular(d)
	_, out.Single = cost.Evaluate(single)
	_, out.Modular = cost.Evaluate(modular)

	singleDev, err := smallestFor(list, single)
	if err != nil {
		return nil, err
	}
	out.SingleDev = singleDev.Name
	if modularDev, err := smallestFor(list, modular); err == nil {
		out.ModularDev = modularDev.Name
	}

	// The proposed algorithm: start on the single-region minimum device,
	// escalate while no feasible multi-region scheme exists.
	start := devIndex(list, singleDev.Name)
	for i := start; i < len(list); i++ {
		o := opts
		o.Budget = list[i].Capacity
		res, err := solve(d, o)
		if err == nil {
			out.Proposed = res.Summary
			out.ProposedDev = list[i].Name
			out.ProposedScheme = res.Scheme
			out.Upsized = i > start
			break
		}
		if err != partition.ErrNoScheme && err != partition.ErrInfeasible {
			return nil, fmt.Errorf("experiments: design %s on %s: %w", d.Name, list[i].Name, err)
		}
	}
	if out.ProposedDev == "" {
		// No multi-region scheme on any device: fall back to the
		// single-region scheme on its own minimum device.
		out.Proposed = out.Single
		out.Proposed.Name = "proposed(single)"
		out.ProposedDev = singleDev.Name
		out.ProposedScheme = single
		out.FallbackSingle = true
	}
	if out.ModularDev != "" {
		out.SmallerThanModular = devIndex(list, out.ProposedDev) < devIndex(list, out.ModularDev)
	}
	if o := opts.Obs; o != nil {
		o.Counter("experiments.designs").Inc()
		if out.Upsized {
			o.Counter("experiments.upsized").Inc()
		}
		if out.FallbackSingle {
			o.Counter("experiments.fallback_single").Inc()
		}
		if out.SmallerThanModular {
			o.Counter("experiments.smaller_than_modular").Inc()
		}
	}
	return out, nil
}

// Sweep evaluates a corpus in parallel with the standard engine,
// preserving input order. Workers defaults to GOMAXPROCS when <= 0.
func Sweep(designs []*design.Design, opts partition.Options, workers int) ([]*Outcome, error) {
	return SweepSolver(designs, opts, workers, partition.Solve)
}

// SweepSolver is Sweep with an injected engine (the -multilevel sweep
// hands multilevel.Solver here).
func SweepSolver(designs []*design.Design, opts partition.Options, workers int, solve Solver) ([]*Outcome, error) {
	stopSweep := opts.Obs.Histogram("experiments.sweep").Time()
	defer stopSweep()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]*Outcome, len(designs))
	errs := make([]error, len(designs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outs[i], errs[i] = EvaluateDesignSolver(i, designs[i], opts, solve)
			}
		}()
	}
	for i := range designs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("design %d: %w", i, err)
		}
	}
	return outs, nil
}
