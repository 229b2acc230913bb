package partition

import (
	"runtime"
	"sync"

	"prpart/internal/resource"
)

// This file is the greedy descent's move scan (§IV-C, Fig. 6): each
// iteration enumerates every legal merge, static promotion and (when
// the descent allows them) single-part transfer of the current state,
// evaluates each through the delta cache, and returns the greedy
// winner. Candidates are independent reads of the immutable current
// state; only the winner's application mutates anything, and that
// stays serial in greedy. The solve path runs the scan with one
// worker, because candidate sets are already its unit of parallelism;
// RefineContext spreads each iteration over Options.Workers, because at
// the multilevel huge tier one refine level carries a thousand parts
// and its transfer scan — O(parts × groups) evaluations per applied
// move — is almost the whole solve.
//
// The design constraint is the serial-vs-parallel identity contract:
// Workers must change wall-clock time and nothing else — not the
// scheme, not the trace, not one obs counter. Three decisions make
// that hold by construction rather than by tolerance:
//
//   - Fixed ownership, independent of Workers. The candidate space is
//     split into scanShards fixed shards (merge and static moves by
//     source-group id, transfers by moved part index; see owner).
//     Workers are merely who executes a shard. With one worker the
//     scan makes a single pass in enumeration order and evaluates each
//     candidate against its owner shard's cache. Either way each shard
//     sees the same set of lookups per iteration, so every cache and
//     counter trajectory is a pure function of the input.
//   - Per-shard caches. The delta cache and quantisation memo are
//     allocation-free but single-threaded, so each shard owns a private
//     set (shard in delta.go). Ownership is stable across iterations
//     (group ids survive unrelated moves, part indices never change),
//     so a shard re-hits its own entries. Cached entries are exact pure
//     functions of their operands, so splitting the cache can change
//     hit/miss counts, never a value.
//   - Deterministic reduction. Every candidate carries an ordinal
//     encoding its position in the enumeration order; incumbent updates
//     and the cross-shard reduction break exact score ties by it, so
//     the first-enumerated best move wins no matter which shard or
//     worker saw it.

// scanShards is the fixed shard count of the scan decomposition. It is
// deliberately NOT the worker count: decomposition must be a pure
// function of the state for determinism, and 16 shards keep granularity
// fine enough that up to 16 workers stay busy.
const scanShards = 16

// EffectiveRefineWorkers resolves an Options.Workers value to the
// worker count the refine scan will actually use: 0 and 1 run the scan
// inline, negative takes GOMAXPROCS, and the count is capped at both
// the shard count and GOMAXPROCS (the shards are pure CPU; extra
// workers beyond either bound only add scheduling overhead, and since
// the decomposition is worker-independent the cap cannot change any
// result).
func EffectiveRefineWorkers(workers int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers > scanShards {
		workers = scanShards
	}
	return workers
}

// Ordinal move classes, in per-source enumeration order: merges first,
// then the static promotion, then transfers.
const (
	ordMerge uint64 = iota
	ordStatic
	ordTransfer
)

// moveOrd packs a candidate's position in the enumeration order into
// one comparable word, high to low: source group index i (21 bits),
// class (2), part slot k (20), destination group index j (21). Lower
// ordinal ⇔ enumerated earlier. Group indices and part slots are
// bounded by the candidate set's part count, so every reachable state
// fits; the panic guards the packing's injectivity.
func moveOrd(i int, class uint64, k, j int) uint64 {
	if i >= 1<<21 || k >= 1<<20 || j >= 1<<21 {
		panic("partition: move scan ordinal overflow")
	}
	return uint64(i)<<43 | class<<41 | uint64(k)<<21 | uint64(j)
}

// shardCand is a scan pass's incumbent best move with its selection
// scores, plus the pass's counter tallies.
type shardCand struct {
	ok    bool
	mv    move
	ord   uint64
	d     int64 // cost delta
	v     int64 // resulting violation (infeasible phase)
	saved int64 // area saved (feasible) / violation removed (infeasible)

	moves   int64 // legal candidates enumerated
	rejects int64 // candidates rejected by the greedy policy
}

// beatenBy reports whether a candidate with the given scores beats the
// incumbent under the greedy selection rule: while feasible, the lower
// cost delta, then the larger area saving; while infeasible, the lower
// cost per unit of violation removed, then the lower resulting
// violation. The enumeration ordinal breaks exact ties, so the first
// enumerated of equals wins.
func (c *shardCand) beatenBy(feasible bool, d, saved, v int64, ord uint64) bool {
	if !c.ok {
		return true
	}
	if feasible {
		if d != c.d {
			return d < c.d
		}
		if saved != c.saved {
			return saved > c.saved
		}
		return ord < c.ord
	}
	// Cross-multiply to stay in integers (saved > 0 on both sides).
	if l, r := d*c.saved, c.d*saved; l != r {
		return l < r
	}
	if v != c.v {
		return v < c.v
	}
	return ord < c.ord
}

// Dense row slot states. extUnknown must be zero so freshly grown and
// freshly cleared slots start unknown.
const (
	extUnknown uint8 = iota
	extIncompatible
	extCached
)

// extRow is the dense destination cache of one candidate part: for
// each destination group's row slot, whether the part may join that
// group and, if so, the cached extension entry. Slots are numbered per
// row epoch (see scan), and an epoch covers the descents from one start
// state: descend and each candidate set (so each RefineContext call)
// open one. A descent only retires groups and creates at most two per
// applied move, so an epoch's slots number at most the start groups
// plus 2 × the summed depth of its (at most four) descents, however
// many groups the candidate set has created before it; the descents
// share the start groups' slots. Groups are immutable, so a filled
// slot cannot go stale within its epoch; opening the next epoch empties
// every row at once, since a row whose epoch is stale is cleared on its
// next use (the shard hash tables keep their entries across epochs).
// Rows turn the
// transfer scan's hottest lookup from a random probe into the shard's
// hash table into a read of a compact per-part array that the hardware
// prefetcher streams, because surviving groups keep both their slots
// and their relative order.
type extRow struct {
	epoch uint32      // the epoch the flags belong to
	flags []uint8     // per slot: extUnknown/extIncompatible/extCached
	vals  []pairEntry // per slot, valid when flags is extCached
}

// grow extends the row with unknown slots so slot is addressable. hint
// is the caller's expected slot high-water (the descent's slot count
// plus slack): sizing new rows to it up front means a row is normally
// allocated once and regrown only after further applied moves, instead
// of paying the doubling ladder from zero.
func (r *extRow) grow(slot, hint int) {
	n := slot + 1
	if n < hint {
		n = hint
	}
	if n < 2*len(r.flags) {
		n = 2 * len(r.flags)
	}
	flags := make([]uint8, n)
	copy(flags, r.flags)
	vals := make([]pairEntry, n)
	copy(vals, r.vals)
	r.flags, r.vals = flags, vals
}

// parScan is a searcher's move scan. The worker pool starts on the
// first iteration run with more than one worker.
type parScan struct {
	s       *searcher
	workers int

	cands [scanShards]shardCand

	// Per-iteration inputs, written before shards are dispatched and
	// read-only while they run. rowHint is the size rows grow to.
	cur            *state
	allowStatic    bool
	allowTransfers bool
	curArea        resource.Vector
	curViol        int64
	rowHint        int

	jobs chan int
	wg   sync.WaitGroup
}

// close releases the worker pool (the goroutines exit when the job
// channel closes). Safe when the pool was never started.
func (p *parScan) close() {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}

// scan selects the best legal move from cur under the greedy policy;
// ok=false means no applicable move remains.
func (p *parScan) scan(cur *state, allowStatic, allowTransfers bool) (move, bool) {
	s, sc := p.s, p.s.sc
	if allowTransfers {
		// Number the groups the epoch has not seen yet. Only this
		// serial prologue writes group slots.
		for _, g := range cur.groups {
			if g.slotEpoch != sc.epoch {
				g.slot, g.slotEpoch = sc.nextSlot, sc.epoch
				sc.nextSlot++
			}
		}
		if n := len(s.partRes); len(sc.rows) < n {
			sc.rows = append(sc.rows, make([]extRow, n-len(sc.rows))...)
		}
		p.rowHint = int(sc.nextSlot) + int(sc.nextSlot)/4
	}
	p.cur = cur
	p.allowStatic, p.allowTransfers = allowStatic, allowTransfers
	p.curArea = cur.area
	p.curViol = s.violation(cur.area)

	var win shardCand
	if p.workers <= 1 {
		win = p.pass(-1)
	} else {
		if p.jobs == nil {
			// Sized to the sends of one iteration, so dispatch never
			// blocks on a busy worker. Workers range over the local:
			// close may clear p.jobs before a worker first runs.
			jobs := make(chan int, scanShards)
			p.jobs = jobs
			for w := 0; w < p.workers; w++ {
				go func() {
					for si := range jobs {
						p.cands[si] = p.pass(si)
						p.wg.Done()
					}
				}()
			}
		}
		p.wg.Add(scanShards)
		for si := 0; si < scanShards; si++ {
			p.jobs <- si
		}
		p.wg.Wait()
		feasible := p.curViol == 0
		for si := range p.cands {
			c := &p.cands[si]
			win.moves += c.moves
			win.rejects += c.rejects
			if c.ok && win.beatenBy(feasible, c.d, c.saved, c.v, c.ord) {
				win.ok, win.mv, win.ord, win.d, win.v, win.saved = true, c.mv, c.ord, c.d, c.v, c.saved
			}
		}
	}
	s.cMoves.Add(win.moves)
	s.cRejects.Add(win.rejects)
	return win.mv, win.ok
}

// pass enumerates and evaluates shard si's slice of the candidate space
// — all of it when si < 0 — in enumeration order, each candidate
// against its owner shard's cache, and returns the incumbent with the
// pass's tallies. The incumbent is a local updated field by field: the
// scan offers every candidate, and a per-candidate struct copy
// measurably costs.
func (p *parScan) pass(si int) shardCand {
	s, sc := p.s, p.s.sc
	cur := p.cur
	curArea, curViol := p.curArea, p.curViol
	curTotal := curArea.Total()
	feasible := curViol == 0
	var best shardCand

	// accept applies the greedy selection policy to an evaluated legal
	// move and updates the incumbent.
	accept := func(mv move, ord uint64, d int64, area resource.Vector, v int64) {
		var saved int64
		if feasible {
			// Accept strict cost improvements, or cost-neutral area
			// reductions that make room for later static promotions.
			if d > 0 || (d == 0 && area.Total() >= curTotal) {
				best.rejects++
				return
			}
			saved = int64(curTotal - area.Total())
		} else {
			saved = curViol - v
		}
		if best.beatenBy(feasible, d, saved, v, ord) {
			best.ok, best.mv, best.ord, best.d, best.v, best.saved = true, mv, ord, d, v, saved
		}
	}
	consider := func(sh *shard, mv move, ord uint64) {
		best.moves++
		d, area, v, ok := s.evalMove(sh, cur, mv, curArea, curViol)
		if !ok {
			best.rejects++
			return
		}
		accept(mv, ord, d, area, v)
	}

	groups := cur.groups
	for i, gi := range groups {
		if own := int(gi.id % scanShards); si < 0 || own == si {
			sh := sc.shards[own]
			for j := i + 1; j < len(groups); j++ {
				if s.groupsCompatible(gi, groups[j]) {
					consider(sh, move{i: i, j: j, part: -1}, moveOrd(i, ordMerge, 0, j))
				}
			}
			if p.allowStatic {
				consider(sh, move{i: i, j: -1, part: -1}, moveOrd(i, ordStatic, 0, 0))
			}
		}
		// Moving the sole part of a group equals a merge, so only
		// groups with two or more parts are transfer sources.
		if !p.allowTransfers || len(gi.parts) < 2 {
			continue
		}
		for k, pi := range gi.parts {
			own := pi % scanShards
			if si >= 0 && own != si {
				continue
			}
			sh := sc.shards[own]
			row := &sc.rows[pi]
			if row.epoch != sc.epoch {
				clear(row.flags)
				row.epoch = sc.epoch
			}
			// The source side of every (i, k, ·) transfer is the same
			// shrunken group, so it is looked up at most once per source
			// part — on the first destination that passes the area
			// bound — instead of once per candidate.
			var src pairEntry
			haveSrc := false
			for j, gj := range groups {
				if j == i {
					continue
				}
				slot := int(gj.slot)
				if slot >= len(row.flags) {
					row.grow(slot, p.rowHint)
				}
				switch row.flags[slot] {
				case extIncompatible:
					continue
				case extUnknown:
					if !s.partCompatible(pi, gj) {
						row.flags[slot] = extIncompatible
						continue
					}
					row.vals[slot] = s.extendEntry(sh, gj, pi)
					row.flags[slot] = extCached
				default:
					// The shard's hash table necessarily holds this
					// entry (the row was filled from it), so the dense
					// read stands in for a hash hit.
					s.cDeltaHit.Inc()
				}
				dst := row.vals[slot]
				best.moves++
				// Decide rejection from the destination side alone
				// when possible: the source group's area is
				// non-negative and violation is monotone in area, so a
				// lower bound that already fails proves the exact area
				// fails too, and the source side is never built.
				lower := curArea.Sub(gi.area).Sub(gj.area).Add(dst.area)
				if _, rej := s.areaViolation(lower, curViol); rej {
					best.rejects++
					continue
				}
				if !haveSrc {
					src = s.shrinkEntry(sh, gi, k)
					haveSrc = true
				}
				newArea := lower.Add(src.area)
				v, rej := s.areaViolation(newArea, curViol)
				if rej {
					best.rejects++
					continue
				}
				d := dst.contrib + src.contrib - gi.contrib - gj.contrib
				accept(move{i: i, j: j, part: k}, moveOrd(i, ordTransfer, k, j), d, newArea, v)
			}
		}
	}
	return best
}
