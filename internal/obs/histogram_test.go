package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram must report a zero quantile")
	}
	// 90 fast observations, 10 slow ones: p50 lands in the 5 ms bucket,
	// p99 in the 2 s bucket.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1500 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	want := 90*3*time.Millisecond + 10*1500*time.Millisecond
	if got := h.Sum(); got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	if got := h.Quantile(0.50); got != 5*time.Millisecond {
		t.Errorf("p50 = %v, want 5ms", got)
	}
	if got := h.Quantile(0.99); got != 2*time.Second {
		t.Errorf("p99 = %v, want 2s", got)
	}
	// A boundary value belongs to its own bucket, not the next one.
	hb := &Histogram{}
	hb.Observe(time.Millisecond)
	if got := hb.Quantile(1); got != time.Millisecond {
		t.Errorf("boundary observation reported as %v, want 1ms", got)
	}
	// Overflow observations saturate at the last bound.
	ho := &Histogram{}
	ho.Observe(10 * time.Minute)
	if got := ho.Quantile(1); got != 60*time.Second {
		t.Errorf("overflow quantile = %v, want 60s", got)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram must read as zero")
	}
	var o *Obs
	if o.Histogram("x") != nil {
		t.Error("nil Obs must hand out nil histograms")
	}
}

func TestHistogramRegistryAndFlat(t *testing.T) {
	o := New()
	h := o.Histogram("jobs.wait")
	if o.Histogram("jobs.wait") != h {
		t.Fatal("same name must return the same instrument")
	}
	h.Observe(4 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	snap := o.Snapshot()
	st, ok := snap.Histograms["jobs.wait"]
	if !ok || st.Count != 2 || st.Sum != 8*time.Millisecond || st.P50 != 5*time.Millisecond {
		t.Errorf("snapshot histogram = %+v (present %v)", st, ok)
	}
	flat := snap.Flat()
	if flat["jobs.wait_count"] != 2 || flat["jobs.wait_ns"] != int64(8*time.Millisecond) {
		t.Errorf("flat histogram entries wrong: %v", flat)
	}
	if flat["jobs.wait_p99_ns"] != int64(5*time.Millisecond) {
		t.Errorf("flat p99 = %d", flat["jobs.wait_p99_ns"])
	}
	var b strings.Builder
	if err := o.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "jobs.wait_count 2") {
		t.Errorf("WriteMetrics missing histogram:\n%s", b.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := New().Histogram("c")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("Count = %d, want 8000", got)
	}
}
