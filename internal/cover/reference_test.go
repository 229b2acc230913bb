package cover

import (
	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/design"
)

// This file keeps the covering as it was before it was compiled to
// bitsets — a cloned boolean matrix zeroed one cell at a time, re-covered
// from every list head and deduplicated on string keys — as the oracle
// the compiled Cover and Sets are differentially tested against.

// workMatrix is the mutable copy of a connectivity matrix that the
// reference covering zeroes.
type workMatrix struct {
	m     *connmat.Matrix
	cells [][]bool
}

func cloneMatrix(m *connmat.Matrix) *workMatrix {
	w := &workMatrix{m: m, cells: make([][]bool, m.NumConfigs())}
	for i := range w.cells {
		w.cells[i] = make([]bool, m.NumModes())
		for j := range w.cells[i] {
			w.cells[i][j] = m.At(i, j)
		}
	}
	return w
}

// Clear zeroes the cell (config i, mode r) and reports whether it was set.
func (w *workMatrix) Clear(i int, r design.ModeRef) bool {
	c := w.m.Column(r)
	if c < 0 || !w.cells[i][c] {
		return false
	}
	w.cells[i][c] = false
	return true
}

// AllZero reports whether every cell has been cleared.
func (w *workMatrix) AllZero() bool {
	for i := range w.cells {
		for _, set := range w.cells[i] {
			if set {
				return false
			}
		}
	}
	return true
}

func refCover(list []basepart.BasePartition, m *connmat.Matrix) (*CandidateSet, error) {
	work := cloneMatrix(m)
	nCfg := m.NumConfigs()
	cs := &CandidateSet{}
	for _, bp := range list {
		if work.AllZero() {
			break
		}
		var active []int
		for ci := 0; ci < nCfg; ci++ {
			covered := false
			for _, r := range bp.Set.Refs() {
				if work.Clear(ci, r) {
					covered = true
				}
			}
			if covered {
				active = append(active, ci)
			}
		}
		if len(active) == 0 {
			continue // covers nothing new: not a candidate
		}
		row := make([]bool, nCfg)
		for _, ci := range active {
			row[ci] = true
		}
		cs.Parts = append(cs.Parts, bp)
		// Active is stored config-major; transpose as we go.
		for ci := 0; ci < nCfg; ci++ {
			if len(cs.Active) <= ci {
				cs.Active = append(cs.Active, nil)
			}
			cs.Active[ci] = append(cs.Active[ci], row[ci])
		}
	}
	if !work.AllZero() {
		return nil, ErrUncoverable
	}
	if len(cs.Active) == 0 {
		cs.Active = make([][]bool, nCfg)
	}
	return cs, nil
}

func refSets(ordered []basepart.BasePartition, m *connmat.Matrix) []*CandidateSet {
	var out []*CandidateSet
	seen := make(map[string]bool)
	for start := 0; start < len(ordered); start++ {
		cs, err := refCover(ordered[start:], m)
		if err != nil {
			break
		}
		key := refSetKey(cs)
		if !seen[key] {
			seen[key] = true
			out = append(out, cs)
		}
	}
	return out
}

func refSetKey(cs *CandidateSet) string {
	key := ""
	for _, p := range cs.Parts {
		key += p.Set.Key() + ";"
	}
	return key
}
