package connmat

import (
	"testing"

	"prpart/internal/design"
	"prpart/internal/synthetic"
)

// FuzzMatrix builds the connectivity matrix for arbitrary bounded
// designs and cross-checks every derived quantity against its
// definition: node weights are column sums, edge weights are symmetric
// and bounded by both node weights, and SetSupport generalises both.
func FuzzMatrix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 10, 1, 1, 20, 2, 0, 2, 5, 0, 0, 3, 1, 2, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := synthetic.FromBytes(data)
		if err := d.Validate(); err != nil {
			return
		}
		m := New(d)
		if m.NumConfigs() != len(d.Configurations) {
			t.Fatalf("NumConfigs = %d, want %d", m.NumConfigs(), len(d.Configurations))
		}
		modes := m.Modes()
		if m.NumModes() != len(modes) {
			t.Fatalf("NumModes = %d but Modes() has %d entries", m.NumModes(), len(modes))
		}

		for _, r := range modes {
			c := m.Column(r)
			if c < 0 || c >= m.NumModes() {
				t.Fatalf("Column(%v) = %d out of range", r, c)
			}
			// NodeWeight is the column sum, and every used mode occurs.
			n := 0
			for i := 0; i < m.NumConfigs(); i++ {
				if m.At(i, c) {
					n++
				}
			}
			if w := m.NodeWeight(r); w != n {
				t.Fatalf("NodeWeight(%v) = %d, column sum %d", r, w, n)
			}
			if m.NodeWeight(r) == 0 {
				t.Fatalf("used mode %v has zero node weight", r)
			}
			if s := m.SetSupport([]design.ModeRef{r}); s != m.NodeWeight(r) {
				t.Fatalf("SetSupport({%v}) = %d, NodeWeight = %d", r, s, m.NodeWeight(r))
			}
		}

		for i, a := range modes {
			for _, b := range modes[i+1:] {
				ab, ba := m.EdgeWeight(a, b), m.EdgeWeight(b, a)
				if ab != ba {
					t.Fatalf("EdgeWeight asymmetric: %v-%v %d vs %d", a, b, ab, ba)
				}
				if ab > m.NodeWeight(a) || ab > m.NodeWeight(b) {
					t.Fatalf("EdgeWeight(%v,%v) = %d exceeds a node weight", a, b, ab)
				}
				if s := m.SetSupport([]design.ModeRef{a, b}); s != ab {
					t.Fatalf("SetSupport pair = %d, EdgeWeight = %d", s, ab)
				}
				if mw := m.MinEdgeWeight([]design.ModeRef{a, b}); mw != ab {
					t.Fatalf("MinEdgeWeight pair = %d, EdgeWeight = %d", mw, ab)
				}
			}
		}

		// Unused modes are invisible.
		ghost := design.ModeRef{Module: 99, Mode: 1}
		if m.Column(ghost) != -1 || m.NodeWeight(ghost) != 0 || m.SetSupport([]design.ModeRef{ghost}) != 0 {
			t.Fatal("unknown mode reported as present")
		}
	})
}
