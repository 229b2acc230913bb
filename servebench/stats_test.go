package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// beyond is how many of n sorted samples lie above the nearest-rank
// p-th percentile.
func beyond(n, p int) int { return n - rankIndex(n, float64(p)) - 1 }

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{200, 95}, {288, 96}, {600, 98}, {1000, 99}, {4000, 99}, {100, 90}, {20, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The chosen percentile always has at least minBeyondTail samples
	// above it, and the next whole percentile would not.
	for n := 20; n <= 5000; n++ {
		p := tailPercentile(n)
		if b := beyond(n, p); b < minBeyondTail {
			t.Fatalf("n=%d: p%d leaves %d samples beyond, want >= %d", n, p, b, minBeyondTail)
		}
		if p < 99 && beyond(n, p+1) >= minBeyondTail {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d samples beyond", n, p, minBeyondTail)
		}
	}
}

// The tail percentile of each workload is fixed in the workload table;
// it must be the one its per-round request count gives.
func TestWorkloadTailsMatchRequestCounts(t *testing.T) {
	for _, w := range workloads {
		if w.requests%w.rounds != 0 {
			t.Errorf("%s: %d requests do not split into %d rounds", w.name, w.requests, w.rounds)
		}
		if got := tailPercentile(w.requests / w.rounds); got != w.tailPct {
			t.Errorf("%s: tailPct = %d, want tailPercentile(%d) = %d", w.name, w.tailPct, w.requests/w.rounds, got)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Errorf("a failed call must count as missing the tail, got %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(s, e int) span { return span{Start: time.Duration(s), End: time.Duration(e)} }
	parent := at(0, 100)
	for _, tc := range []struct {
		name          string
		kids          []span
		self, covered time.Duration
		outside       int
	}{
		{"no children", nil, 100, 0, 0},
		{"disjoint", []span{at(10, 20), at(50, 60)}, 80, 20, 0},
		{"overlapping counted once", []span{at(10, 30), at(20, 40), at(35, 50)}, 60, 40, 0},
		{"nested", []span{at(10, 90), at(20, 30)}, 20, 80, 0},
		{"reaching outside is clipped and reported", []span{at(90, 110), at(-5, 5)}, 85, 15, 2},
		{"whole interval", []span{at(0, 100)}, 0, 100, 0},
	} {
		self, covered, outside := selfTime(parent, tc.kids)
		if self != tc.self || covered != tc.covered || outside != tc.outside {
			t.Errorf("%s: selfTime = (%d, %d, %d), want (%d, %d, %d)",
				tc.name, self, covered, outside, tc.self, tc.covered, tc.outside)
		}
		if self+covered != parent.dur() {
			t.Errorf("%s: self %d + covered %d != parent %d", tc.name, self, covered, parent.dur())
		}
	}
}

func TestGoid(t *testing.T) {
	me := goid()
	if me <= 0 {
		t.Fatalf("goid() = %d", me)
	}
	if again := goid(); again != me {
		t.Fatalf("goid() changed on the same goroutine: %d then %d", me, again)
	}
	other := make(chan int64)
	go func() { other <- goid() }()
	if g := <-other; g == me || g <= 0 {
		t.Fatalf("another goroutine got id %d (mine %d)", g, me)
	}
}

func TestParseStatCPU(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=150 and stime=50
	// ticks are fields 14 and 15.
	stat := "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 7 0 100 1000000 500 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 no-parens S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 abc 50 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tprpartd\nVmPeak:\t  812345 kB\nVmHWM:\t   24576 kB\nVmRSS:\t   20000 kB\n"
	for field, want := range map[string]int64{"VmHWM": 24576 << 10, "VmRSS": 20000 << 10} {
		got, err := parseStatusKB([]byte(status), field)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parseStatusKB(%s) = %d, want %d", field, got, want)
		}
	}
	for _, bad := range []string{"Name:\tx\nVmHWM:\t1 kB\n", "VmRSS:\t12 MB\n", "VmRSS:\tlots kB\n"} {
		if _, err := parseStatusKB([]byte(bad), "VmRSS"); err == nil {
			t.Errorf("parseStatusKB(%q, VmRSS) accepted malformed input", bad)
		}
	}
}

// The parsers read what this kernel actually writes.
func TestProcSelf(t *testing.T) {
	pid := os.Getpid()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	cpu, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Errorf("procCPU(self) = %v after a busy loop", cpu)
	}
	rss, err := procRSS(pid)
	if err != nil {
		t.Fatal(err)
	}
	if rss < 1<<20 {
		t.Errorf("procRSS(self) = %d bytes", rss)
	}
}
