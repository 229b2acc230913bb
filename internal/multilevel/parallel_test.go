package multilevel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"prpart/internal/design"
	"prpart/internal/obs"
	"prpart/internal/partition"
	"prpart/internal/synthetic"
)

// diffCounters reports every counter whose value differs between two
// snapshots, empty when they agree. Only counters are compared: gauges
// (worker counts) and duration histograms (wall clock) legitimately vary with the
// worker setting, counters must not.
func diffCounters(a, b map[string]int64) string {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("%s: %d vs %d", k, a[k], b[k]))
		}
	}
	return strings.Join(out, "; ")
}

// raiseProcs lifts GOMAXPROCS to n for the rest of the test (restored
// on cleanup) and asserts that EffectiveRefineWorkers(n) now returns n,
// so the identity contract runs n shard workers even on a host with
// fewer CPUs. GOMAXPROCS is a setting of the test process only.
func raiseProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	if got := partition.EffectiveRefineWorkers(n); got != n {
		t.Fatalf("EffectiveRefineWorkers(%d) = %d, want %d", n, got, n)
	}
}

// mlRun solves d with a fresh obs sink at the given worker count and
// returns the result fingerprint plus the counter snapshot.
func mlRun(d *design.Design, o Options, workers int) (string, map[string]int64, error) {
	ob := obs.New()
	o.Partition.Obs = ob
	o.Partition.Workers = workers
	res, err := Solve(d, o)
	if err != nil {
		return "", nil, err
	}
	return fingerprint(d, res.Partition), ob.Snapshot().Counters, nil
}

// TestMultilevelParallelIdentityCorpus is the byte-identity contract of
// the parallel refine scan: over the synthetic corpus with coarsening
// forced, Workers=2 and Workers=8 must reproduce the serial run exactly
// — same fingerprint (scheme, summary, state counts, trace) and the
// same obs counters, because the shard decomposition is fixed and only
// shard execution is distributed over workers.
func TestMultilevelParallelIdentityCorpus(t *testing.T) {
	raiseProcs(t, 8)
	for _, d := range corpusDesigns(t) {
		popts := partition.Options{Budget: partition.Modular(d).TotalResources()}
		base, baseC, berr := mlRun(d, forced(popts), 1)
		for _, w := range []int{2, 8} {
			got, gotC, err := mlRun(d, forced(popts), w)
			if (err == nil) != (berr == nil) || (err != nil && err.Error() != berr.Error()) {
				dumpArtifact(t, d)
				t.Fatalf("%s: workers=%d error diverges from serial: %v vs %v", d.Name, w, err, berr)
			}
			if err != nil {
				continue
			}
			if got != base {
				dumpArtifact(t, d)
				t.Fatalf("%s: workers=%d scheme diverges from serial:\n--- serial\n%s--- workers=%d\n%s",
					d.Name, w, base, w, got)
			}
			if diff := diffCounters(baseC, gotC); diff != "" {
				dumpArtifact(t, d)
				t.Fatalf("%s: workers=%d counters diverge from serial: %s", d.Name, w, diff)
			}
		}
	}
}

// TestMultilevelParallelIdentityHuge runs the identity contract at the
// scale the engine exists for: a huge-tier design solved serially, then
// twice at Workers=4 (the second run re-proves seed stability), all
// three byte-identical in fingerprint and counters.
func TestMultilevelParallelIdentityHuge(t *testing.T) {
	var d *design.Design
	if raceEnabled || testing.Short() {
		rng := rand.New(rand.NewSource(1))
		d = synthetic.HugeOne(rng, synthetic.Logic, "huge-par-300", 300)
	} else {
		d = synthetic.GenerateHuge(1, 1)[0] // 1000-mode tier
	}
	o := Options{Partition: partition.Options{Budget: partition.Modular(d).TotalResources()}, Seed: 1}
	raiseProcs(t, 4)
	base, baseC, err := mlRun(d, o, 1)
	if err != nil {
		dumpArtifact(t, d)
		t.Fatalf("%s: serial solve failed: %v", d.Name, err)
	}
	for run := 1; run <= 2; run++ {
		got, gotC, err := mlRun(d, o, 4)
		if err != nil {
			dumpArtifact(t, d)
			t.Fatalf("%s: workers=4 run %d failed: %v", d.Name, run, err)
		}
		if got != base {
			dumpArtifact(t, d)
			t.Fatalf("%s: workers=4 run %d scheme diverges from serial", d.Name, run)
		}
		if diff := diffCounters(baseC, gotC); diff != "" {
			dumpArtifact(t, d)
			t.Fatalf("%s: workers=4 run %d counters diverge from serial: %s", d.Name, run, diff)
		}
	}
}
