// Package cover implements the paper's covering algorithm (§IV-C): base
// partitions, ordered ascending by mode count (then frequency weight,
// then area), are drawn in sequence and used to zero the entries of the
// connectivity matrix they provide, until every configuration is fully
// covered. The partitions actually used form a candidate partition set —
// the starting point for region allocation. Removing the head of the list
// and re-covering yields the next candidate set, until covering fails.
//
// The list is compiled once per matrix into bitsets (see compiled), so a
// covering pass clears one column mask per (part, configuration) and
// knows the matrix is fully covered from a running cell count.
package cover

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sort"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/device"
)

// ErrUncoverable reports that the base-partition list cannot cover every
// configuration — the candidate-set iteration has been exhausted.
var ErrUncoverable = errors.New("cover: base partitions cannot cover all configurations")

// CandidateSet is a set of base partitions whose modes cover every valid
// configuration, plus the activation record the covering produced.
type CandidateSet struct {
	// Parts are the selected base partitions, in selection order.
	Parts []basepart.BasePartition
	// Active[ci][pi] reports whether configuration ci requires part pi
	// (the part covered at least one of the configuration's modes).
	Active [][]bool
}

// Order sorts base partitions into the paper's covering order: ascending
// number of modes, then ascending frequency weight, then ascending area
// in frames, with the canonical set key as a final deterministic
// tie-break. The input is not modified.
func Order(parts []basepart.BasePartition) []basepart.BasePartition {
	out := append([]basepart.BasePartition(nil), parts...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Set.Len() != b.Set.Len() {
			return a.Set.Len() < b.Set.Len()
		}
		if a.FreqWeight != b.FreqWeight {
			return a.FreqWeight < b.FreqWeight
		}
		fa, fb := device.Frames(a.Resources), device.Frames(b.Resources)
		if fa != fb {
			return fa < fb
		}
		return a.Set.Key() < b.Set.Key()
	})
	return out
}

// Cover runs one covering pass: partitions are taken in list order, each
// kept only if it covers at least one still-uncovered (configuration,
// mode) cell, until the matrix is fully covered. ErrUncoverable is
// returned when the list runs out first.
func Cover(list []basepart.BasePartition, m *connmat.Matrix) (*CandidateSet, error) {
	c := compile(list, m)
	if !c.pass(0) {
		return nil, ErrUncoverable
	}
	return c.candidateSet(), nil
}

// Sets enumerates the candidate partition sets of the paper's outer loop:
// the first covering uses the whole ordered list; each subsequent one
// removes the current head and re-covers, until covering fails. The
// partitions must already be in covering order (see Order). A pass that
// selects the same parts as an earlier one is dropped.
func Sets(ordered []basepart.BasePartition, m *connmat.Matrix) []*CandidateSet {
	c := compile(ordered, m)
	// ids[pi] is the first list index holding an equal mode set, so a
	// pass is keyed by the parts it selected, not by their positions.
	ids := make([]uint32, len(ordered))
	first := make(map[string]uint32, len(ordered))
	for pi, p := range ordered {
		k := p.Set.Key()
		id, ok := first[k]
		if !ok {
			id = uint32(pi)
			first[k] = id
		}
		ids[pi] = id
	}
	var out []*CandidateSet
	seen := make(map[string]struct{})
	var key []byte
	for start := 0; start < len(ordered); start++ {
		if !c.pass(start) {
			break
		}
		key = key[:0]
		for _, pi := range c.used {
			key = binary.LittleEndian.AppendUint32(key, ids[pi])
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, c.candidateSet())
	}
	return out
}

// compiled is a base-partition list compiled against one matrix. Rows
// and columns are bitsets over matrix columns, words uint64s each:
// rows[ci] holds configuration ci's modes and cols[pi] the modes of
// list[pi]. A pass zeroes a working copy of rows with one and-not per
// (part, configuration), visiting only the configurations a part
// intersects at all.
type compiled struct {
	list  []basepart.BasePartition
	nCfg  int
	words int
	rows  []uint64 // nCfg × words
	cols  []uint64 // len(list) × words
	// cfgs[cfgOff[pi]:cfgOff[pi+1]] lists the configurations whose row
	// intersects list[pi]; no other configuration can gain from it.
	cfgs   []int32
	cfgOff []int32
	cells  int // set cells in rows

	// Pass output, reused across passes: the list indices the pass
	// selected, in order, and for the k-th of them the configurations
	// it covered, act[actEnd[k-1]:actEnd[k]].
	work   []uint64
	used   []int32
	act    []int32
	actEnd []int32
}

func compile(list []basepart.BasePartition, m *connmat.Matrix) *compiled {
	nCfg, nCol := m.NumConfigs(), m.NumModes()
	words := (nCol + 63) / 64
	c := &compiled{
		list:   list,
		nCfg:   nCfg,
		words:  words,
		rows:   make([]uint64, nCfg*words),
		cols:   make([]uint64, len(list)*words),
		cfgOff: make([]int32, len(list)+1),
		work:   make([]uint64, nCfg*words),
	}
	for ci := 0; ci < nCfg; ci++ {
		row := c.rows[ci*words : (ci+1)*words]
		for j := 0; j < nCol; j++ {
			if m.At(ci, j) {
				row[j/64] |= 1 << (j % 64)
				c.cells++
			}
		}
	}
	for pi, p := range list {
		col := c.cols[pi*words : (pi+1)*words]
		for _, r := range p.Set.Refs() {
			if j := m.Column(r); j >= 0 {
				col[j/64] |= 1 << (j % 64)
			}
		}
		for ci := 0; ci < nCfg; ci++ {
			if intersects(c.rows[ci*words:(ci+1)*words], col) {
				c.cfgs = append(c.cfgs, int32(ci))
			}
		}
		c.cfgOff[pi+1] = int32(len(c.cfgs))
	}
	return c
}

func intersects(a, b []uint64) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// pass runs one covering pass over list[start:] and reports whether it
// covered every cell. The selection is left in used/act/actEnd.
func (c *compiled) pass(start int) bool {
	copy(c.work, c.rows)
	left := c.cells
	c.used, c.act, c.actEnd = c.used[:0], c.act[:0], c.actEnd[:0]
	w := c.words
	for pi := start; pi < len(c.list) && left > 0; pi++ {
		col := c.cols[pi*w : (pi+1)*w]
		n := len(c.act)
		for _, ci := range c.cfgs[c.cfgOff[pi]:c.cfgOff[pi+1]] {
			row := c.work[int(ci)*w : int(ci+1)*w]
			hit := 0
			for k, cw := range col {
				if x := row[k] & cw; x != 0 {
					hit += bits.OnesCount64(x)
					row[k] &^= cw
				}
			}
			if hit > 0 {
				left -= hit
				c.act = append(c.act, ci)
			}
		}
		if len(c.act) > n {
			c.used = append(c.used, int32(pi))
			c.actEnd = append(c.actEnd, int32(len(c.act)))
		}
	}
	return left == 0
}

// candidateSet materialises the last pass's selection.
func (c *compiled) candidateSet() *CandidateSet {
	cs := &CandidateSet{Active: make([][]bool, c.nCfg)}
	k := len(c.used)
	if k == 0 {
		return cs
	}
	cs.Parts = make([]basepart.BasePartition, k)
	for i, pi := range c.used {
		cs.Parts[i] = c.list[pi]
	}
	cells := make([]bool, c.nCfg*k)
	for ci := range cs.Active {
		cs.Active[ci] = cells[ci*k : (ci+1)*k : (ci+1)*k]
	}
	lo := int32(0)
	for i, hi := range c.actEnd {
		for _, ci := range c.act[lo:hi] {
			cs.Active[ci][i] = true
		}
		lo = hi
	}
	return cs
}
