package rect

import (
	"repro/internal/analysis/invariant"
	"repro/internal/bitset"
	"repro/internal/kcm"
)

// CubeSet is a set of function-cube ids, stored densely: builder cube
// ids are contiguous within each processor's label band, so a bitset
// keyed directly by id is compact (≈75 KB at six bands) and makes
// membership a single bit test. The L-shaped algorithm shares one
// CubeSet across all its L-matrices. Every mutation must bump version
// — the invalidation hook sibling Covers watch — which repolint's
// indexinvalidate analyzer enforces.
//
//repolint:invalidate version
type CubeSet struct {
	bits bitset.Set
	// version counts mutations, letting Covers on a shared set
	// detect marks that arrived through a sibling Cover.
	version uint64
}

// NewCubeSet returns an empty set sized for ids up to maxID.
func NewCubeSet(maxID int64) *CubeSet {
	return &CubeSet{bits: bitset.New(int(maxID) + 1)}
}

// Has reports whether id is in the set.
func (s *CubeSet) Has(id int64) bool {
	if id < 0 || int(id) >= s.bits.Cap() {
		return false
	}
	return s.bits.Test(int(id))
}

// Add inserts id, growing the set if needed. It reports whether the
// id was newly added.
func (s *CubeSet) Add(id int64) bool {
	if id < 0 {
		return false
	}
	if int(id) >= s.bits.Cap() {
		grown := bitset.New(int(id) + 1)
		copy(grown, s.bits)
		s.bits = grown
	}
	if s.bits.Test(int(id)) {
		return false
	}
	s.bits.Set(int(id))
	s.version++
	return true
}

// Cover binds a covered-cube set to one matrix and is the searcher's
// fast path for the greedy cover loop: setting Config.Cover makes
// entry values bit tests on the set and caches each column's total
// claimable value over its full row set (the root-level dominance
// prune), invalidating only the columns that contain a cube when it
// is marked. The set may be shared by Covers of other matrices
// (NewCoverShared); marks arriving through a sibling flush the whole
// cache via the set's version counter.
type Cover struct {
	m   *kcm.Matrix
	set *CubeSet

	// Column-value cache, lazily built against one Index snapshot.
	ix       *kcm.Index
	colVal   []int
	colFresh bitset.Set
	cubeCols map[int64][]int32
	version  uint64
}

// NewCover returns a Cover over a fresh empty set sized to m's cubes.
func NewCover(m *kcm.Matrix) *Cover {
	return &Cover{m: m, set: NewCubeSet(m.MaxCubeID())}
}

// NewCoverShared binds m to an existing (possibly shared) set.
func NewCoverShared(m *kcm.Matrix, set *CubeSet) *Cover {
	return &Cover{m: m, set: set}
}

// Set returns the underlying cube set.
func (c *Cover) Set() *CubeSet { return c.set }

// Has reports whether the cube id is covered.
func (c *Cover) Has(id int64) bool { return c.set.Has(id) }

// Mark covers the cube id, invalidating the cached values of exactly
// the columns that contain it.
func (c *Cover) Mark(id int64) {
	if !c.set.Add(id) {
		return
	}
	if c.ix != nil {
		for _, dc := range c.cubeCols[id] {
			c.colFresh.Clear(int(dc))
		}
	}
	c.version = c.set.version
}

// Valuer returns the equivalent generic valuer: an entry is worth its
// weight unless its cube is covered. The reference searcher and
// non-fast-path callers use it.
func (c *Cover) Valuer() Valuer {
	return func(e kcm.Entry) int {
		if c.set.Has(e.CubeID) {
			return 0
		}
		return e.Weight
	}
}

// colValue returns the total claimable value of dense column dc over
// its full row set, from cache when fresh.
func (c *Cover) colValue(ix *kcm.Index, dc int) int {
	if c.ix != ix {
		c.rebuild(ix)
	} else if c.version != c.set.version {
		// The set changed through a sibling Cover; our fine-grained
		// invalidation missed those marks, so flush everything.
		c.colFresh.Reset()
		c.version = c.set.version
	}
	if c.colFresh.Test(dc) {
		v := c.colVal[dc]
		if invariant.Enabled {
			invariant.Assert(v == c.recompute(ix, dc),
				"stale column-value cache: dense col %d cached %d, recomputed %d (missed Mark invalidation?)",
				dc, v, c.recompute(ix, dc))
		}
		return v
	}
	total := c.recompute(ix, dc)
	c.colVal[dc] = total
	c.colFresh.Set(dc)
	return total
}

// recompute sums dense column dc's claimable value over its full row
// set, ignoring the cache. It is the cache's ground truth: colValue
// fills from it, and the invariants build cross-checks every cache hit
// against it.
func (c *Cover) recompute(ix *kcm.Index, dc int) int {
	total := 0
	pos := ix.ColEntryPos[dc]
	for t, r := range ix.ColRowList[dc] {
		e := ix.Rows[r].Entries[pos[t]]
		if !c.set.Has(e.CubeID) {
			total += e.Weight
		}
	}
	return total
}

// rebuild re-targets the cache at a new index snapshot.
func (c *Cover) rebuild(ix *kcm.Index) {
	nc := len(ix.ColIDs)
	c.ix = ix
	if cap(c.colVal) >= nc {
		c.colVal = c.colVal[:nc]
	} else {
		c.colVal = make([]int, nc)
	}
	c.colFresh = bitset.New(nc)
	c.cubeCols = make(map[int64][]int32, nc*2)
	for i, refs := range ix.RowRefs {
		for k, dc := range refs {
			id := ix.Rows[i].Entries[k].CubeID
			c.cubeCols[id] = append(c.cubeCols[id], dc)
		}
	}
	c.version = c.set.version
}
