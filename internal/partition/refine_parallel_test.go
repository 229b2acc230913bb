package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/design"
	"prpart/internal/device"
	"prpart/internal/modeset"
	"prpart/internal/obs"
	"prpart/internal/resource"
	"prpart/internal/synthetic"
)

// refineWarmStart builds a refinement problem with one singleton part
// per used mode, every part its own group, nothing static — exactly the
// finest-level warm start the multilevel chain hands to Refine, built
// without the clustering pipeline so it works at any mode count.
func refineWarmStart(d *design.Design) WarmStart {
	used := d.UsedModes()
	ws := WarmStart{
		Parts:  make([]basepart.BasePartition, len(used)),
		Active: make([][]bool, len(d.Configurations)),
		Groups: make([][]int, len(used)),
	}
	index := map[design.ModeRef]int{}
	for i, r := range used {
		ws.Parts[i] = basepart.BasePartition{Set: modeset.New(r), FreqWeight: 1, Resources: d.ModeResources(r)}
		ws.Groups[i] = []int{i}
		index[r] = i
	}
	for ci, c := range d.Configurations {
		row := make([]bool, len(used))
		for mi, k := range c.Modes {
			if k != 0 {
				row[index[design.ModeRef{Module: mi, Mode: k}]] = true
			}
		}
		ws.Active[ci] = row
	}
	return ws
}

// refineFingerprint serialises everything observable about a refine
// outcome so runs at different worker counts can be compared byte for
// byte.
func refineFingerprint(out *RefineOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d feasible=%v\ngroups=%v\nstatic=%v\n", out.States, out.Feasible, out.Groups, out.Static)
	if out.Result != nil {
		fmt.Fprintf(&b, "total=%d worst=%d\n", out.Result.Summary.Total, out.Result.Summary.Worst)
		for _, step := range out.Result.Trace {
			b.WriteString(step)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// refineDiffCounters reports counters that differ between two obs
// snapshots (gauges and duration histograms are excluded: worker gauges
// and wall clocks legitimately vary with the worker setting, counters must not).
func refineDiffCounters(a, b map[string]int64) string {
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

// warmStartArea is the device area of a warm start's grouping,
// fixed static logic included, as the search accounts it.
func warmStartArea(d *design.Design, ws WarmStart) resource.Vector {
	area := d.Static
	for _, g := range ws.Groups {
		var res resource.Vector
		for _, pi := range g {
			res = res.Max(ws.Parts[pi].Resources)
		}
		area = area.Add(device.TilesToPrimitives(device.Tiles(res)))
	}
	for _, pi := range ws.Static {
		area = area.Add(ws.Parts[pi].Resources)
	}
	return area
}

// TestRefineWorkersDeterminism pins the scan's identity contract at the
// Refine surface itself: for designs small and large, Workers∈{2,8}
// must reproduce the Workers=1 outcome byte for byte (grouping, scheme
// summary, trace, state count) with identical obs counters, and a
// second Workers=8 run must reproduce the first (seed stability; the
// -count=5 tier re-proves this across processes). Every case starts
// over budget, so each descent opens in the infeasible phase, whose
// ratio, violation and ordinal tie-breaks the cross-shard reduction
// must resolve exactly as the single inline pass does; the tightened
// small designs keep that phase long.
func TestRefineWorkersDeterminism(t *testing.T) {
	// Run 8 shard workers even on a host with fewer CPUs:
	// EffectiveRefineWorkers caps at GOMAXPROCS, a setting of this test
	// process only, restored on cleanup.
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	if got := EffectiveRefineWorkers(8); got != 8 {
		t.Fatalf("EffectiveRefineWorkers(8) = %d, want 8", got)
	}
	rng := rand.New(rand.NewSource(7))
	small := []*design.Design{design.PaperExample(), design.VideoReceiver()}
	small = append(small, synthetic.Generate(5, 6)...)
	type refineCase struct {
		d      *design.Design
		budget resource.Vector
	}
	var cases []refineCase
	for _, d := range small {
		budget := Modular(d).TotalResources()
		cases = append(cases, refineCase{d, budget}, refineCase{d, tighten(budget, 85)})
	}
	huge := synthetic.HugeOne(rng, synthetic.Logic, "refine-par-150", 150)
	cases = append(cases, refineCase{huge, Modular(huge).TotalResources()})
	for _, c := range cases {
		d := c.d
		ws := refineWarmStart(d)
		if warmStartArea(d, ws).FitsIn(c.budget) {
			t.Fatalf("%s: warm start fits budget %v; the case must start over budget", d.Name, c.budget)
		}
		run := func(workers int) (string, map[string]int64) {
			ob := obs.New()
			out, err := Refine(d, ws, Options{Budget: c.budget, Workers: workers, Obs: ob})
			if err != nil {
				t.Fatalf("%s: refine workers=%d: %v", d.Name, workers, err)
			}
			return refineFingerprint(out), ob.Snapshot().Counters
		}
		base, baseC := run(1)
		for _, w := range []int{2, 8, 8} {
			got, gotC := run(w)
			if got != base {
				t.Fatalf("%s: workers=%d outcome diverges from serial:\n--- serial\n%s--- workers=%d\n%s",
					d.Name, w, base, w, got)
			}
			if diff := refineDiffCounters(baseC, gotC); diff != "" {
				t.Fatalf("%s: workers=%d counters diverge from serial: %s", d.Name, w, diff)
			}
		}
	}
}

// TestMoveOrd pins the scan ordinal's packing: order across every
// field is preserved at the field maxima, and one past any maximum
// panics rather than aliasing another candidate's ordinal.
func TestMoveOrd(t *testing.T) {
	const maxI, maxK, maxJ = 1<<21 - 1, 1<<20 - 1, 1<<21 - 1
	ordered := []uint64{
		moveOrd(0, ordMerge, 0, 0),
		moveOrd(0, ordMerge, 0, maxJ),
		moveOrd(0, ordStatic, 0, 0),
		moveOrd(0, ordTransfer, 0, maxJ),
		moveOrd(0, ordTransfer, maxK, 0),
		moveOrd(0, ordTransfer, maxK, maxJ),
		moveOrd(1, ordMerge, 0, 0),
		moveOrd(maxI, ordMerge, 0, maxJ),
		moveOrd(maxI, ordStatic, 0, 0),
		moveOrd(maxI, ordTransfer, maxK, maxJ-1),
		moveOrd(maxI, ordTransfer, maxK, maxJ),
	}
	for n := 1; n < len(ordered); n++ {
		if ordered[n-1] >= ordered[n] {
			t.Fatalf("ordinal %d (%#x) does not sort before ordinal %d (%#x)", n-1, ordered[n-1], n, ordered[n])
		}
	}
	for _, c := range []struct {
		name    string
		i, k, j int
	}{
		{"i", maxI + 1, 0, 0},
		{"k", 0, maxK + 1, 0},
		{"j", 0, 0, maxJ + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("moveOrd with %s one past its maximum did not panic", c.name)
				}
			}()
			moveOrd(c.i, ordTransfer, c.k, c.j)
		}()
	}
}
