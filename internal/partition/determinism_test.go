package partition_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/synthetic"
)

// fingerprint serialises everything observable about a result so two
// runs can be compared byte-for-byte: region membership and order,
// static promotion, the activation matrix, and the cost summary.
func fingerprint(d *design.Design, res *partition.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d worst=%d\n", res.Summary.Total, res.Summary.Worst)
	for ri, reg := range res.Scheme.Regions {
		fmt.Fprintf(&b, "region %d (%d frames):", ri, reg.Frames())
		for _, p := range reg.Parts {
			fmt.Fprintf(&b, " %s", p.Label(d))
		}
		b.WriteByte('\n')
	}
	fmt.Fprint(&b, "static:")
	for _, p := range res.Scheme.Static {
		fmt.Fprintf(&b, " %s", p.Label(d))
	}
	b.WriteByte('\n')
	for _, row := range res.Scheme.Active {
		fmt.Fprintf(&b, "%v\n", row)
	}
	return b.String()
}

// TestDeterminismWorkers runs the search five times serial (Workers=1)
// and five times fully parallel (Workers=-1) on several designs and
// requires every run to produce a byte-identical scheme: the documented
// contract that parallelism never changes the result.
func TestDeterminismWorkers(t *testing.T) {
	designs := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	for _, d := range synthetic.Generate(3, 6) {
		designs = append(designs, d)
	}
	for _, d := range designs {
		budget := partition.Modular(d).TotalResources()
		want := ""
		for run := 0; run < 5; run++ {
			for _, workers := range []int{1, -1} {
				res, err := partition.Solve(d, partition.Options{Budget: budget, Workers: workers})
				if err != nil {
					t.Fatalf("%s: run %d workers %d: %v", d.Name, run, workers, err)
				}
				got := fingerprint(d, res)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: run %d workers %d diverged:\n--- first run\n%s--- this run\n%s",
						d.Name, run, workers, want, got)
				}
			}
		}
	}
}

// TestDeterminismObsIdentical re-runs an instrumented parallel solve and
// requires the search counters (not the timers, which measure wall
// clock) to be identical across runs and to serial runs: attaching the
// registry must be purely observational and the amount of work done must
// not depend on scheduling.
func TestDeterminismObsIdentical(t *testing.T) {
	d := design.VideoReceiver()
	budget := partition.Modular(d).TotalResources()
	counters := func(workers int) map[string]int64 {
		o := obs.New()
		if _, err := partition.Solve(d, partition.Options{Budget: budget, Workers: workers, Obs: o}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return o.Snapshot().Counters
	}
	want := counters(1)
	if want["partition.moves_evaluated"] == 0 || want["partition.states"] == 0 {
		t.Fatalf("instrumentation recorded no work: %v", want)
	}
	for run := 0; run < 5; run++ {
		got := counters(-1)
		for k, w := range want {
			if got[k] != w {
				t.Errorf("run %d: counter %s = %d parallel vs %d serial", run, k, got[k], w)
			}
		}
	}
}

// TestDeterminismObsCountersMonotonic polls the registry while a
// parallel solve hammers it and checks every counter only ever grows.
// Under -race (tier 2) this also proves the instruments are safe to
// read concurrently with the search.
func TestDeterminismObsCountersMonotonic(t *testing.T) {
	o := obs.New()
	moves := o.Counter("partition.moves_evaluated")
	states := o.Counter("partition.states")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastMoves, lastStates int64
		for {
			m, s := moves.Value(), states.Value()
			if m < lastMoves || s < lastStates {
				t.Errorf("counters went backwards: moves %d -> %d, states %d -> %d",
					lastMoves, m, lastStates, s)
				return
			}
			lastMoves, lastStates = m, s
			select {
			case <-done:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	for _, d := range synthetic.Generate(5, 6) {
		budget := partition.Modular(d).TotalResources()
		if _, err := partition.Solve(d, partition.Options{Budget: budget, Workers: -1, Obs: o}); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	close(done)
	wg.Wait()
	if moves.Value() == 0 {
		t.Fatal("no moves recorded")
	}
}

// TestSolveWorkersCappedAtCandidateSets asks for more workers than the
// design has candidate sets: the search starts one worker per set and
// no idle ones, so the partition.workers gauge (workers started) equals
// the candidate set count.
func TestSolveWorkersCappedAtCandidateSets(t *testing.T) {
	d := design.PaperExample()
	o := obs.New()
	if _, err := partition.Solve(d, partition.Options{Budget: partition.Modular(d).TotalResources(), Workers: 64, Obs: o}); err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	sets := snap.Counters["partition.candidate_sets"]
	if sets < 2 || sets >= 64 {
		t.Fatalf("candidate_sets = %d, want a count in [2, 64) to exercise the cap", sets)
	}
	if got := snap.Gauges["partition.workers"]; got != sets {
		t.Errorf("partition.workers = %d at Workers: 64, want %d (one per candidate set)", got, sets)
	}
}
