// Package rect implements the rectangle machinery of the
// minimum-weighted rectangle covering formulation [Brayton et al.,
// ICCAD 1987] that kernel extraction reduces to (paper §2): a
// rectangle (R,C) of the KC matrix selects a kernel (the sum of the
// column cubes) and the rows whose nodes profit from extracting it.
//
// The search enumerates the tree of Figure 1: a depth-first traversal
// over column sets in increasing label order, so that restricting the
// root (leftmost) column partitions the whole search space across
// processors — exactly the paper's divide-and-conquer decomposition.
//
// The searcher runs on the dense row and column lists of kcm.Index:
// the row subset at each node is a sorted list of dense rows, the
// intersection of its parent's list with the new column's list; each
// row carries the positions of its entries in the chosen columns;
// candidate extensions are found by scanning the surviving rows' dense
// entry references past the last chosen column. A visit therefore
// costs time in the rows it touches, not in the matrix width, and all
// per-visit scratch comes from a pooled arena, so a search visit
// allocates nothing. Dense order equals label order, which keeps the
// enumeration — and therefore every tie-break and the §3
// leftmost-column decomposition — bit-for-bit identical to the
// map-based reference searcher the tests compare against
// (reference_test.go).
//
// The package is determinism-critical: enumeration order is the
// contract (DESIGN.md §7), so map iteration order must never leak
// into results.
//
//repolint:determinism-critical
package rect

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/kcm"
)

// Rect is a rectangle of the KC matrix together with its evaluated
// gain (net literal savings if extracted).
type Rect struct {
	// Rows are the participating row ids (each row's node profits).
	Rows []int64
	// Cols are the column ids; the extracted kernel is the sum of
	// their cubes.
	Cols []int64
	// Gain is the estimated literal savings: covered cube literals
	// minus the rewritten rows' new cubes minus the new node.
	Gain int
}

// Valuer returns the literal value a searching processor may claim
// for the function cube behind an entry. The sequential algorithm
// uses a Cover (dense covered-cube set); the L-shaped algorithm
// consults the cube state machine (§5.3) through a custom Valuer.
type Valuer func(e kcm.Entry) int

// WeightValuer values every cube at its literal count (nothing
// covered yet).
func WeightValuer(e kcm.Entry) int { return e.Weight }

// CoveredValuer values cubes at their weight unless their id is in
// covered. Kept for tests and as the reference covered-set valuer;
// hot paths use Cover, whose bitset the searcher tests directly.
func CoveredValuer(covered map[int64]bool) Valuer {
	return func(e kcm.Entry) int {
		if covered[e.CubeID] {
			return 0
		}
		return e.Weight
	}
}

// Config bounds the branch-and-bound enumeration.
type Config struct {
	// MaxCols caps the number of columns per rectangle (search
	// depth). 0 means the package default (8).
	MaxCols int
	// MaxVisits caps the number of search-tree nodes expanded. 0
	// means the package default (1 << 20). The cap keeps worst-case
	// inputs tractable; the searcher reports whether it was hit.
	MaxVisits int
	// LeftmostCols restricts root columns to this set — the §3
	// decomposition. nil means all columns.
	LeftmostCols []int64
	// MinRows is the minimum number of participating rows. The
	// default (0) means 2: kernel extraction looks for *common*
	// subexpressions, so a kernel must be used at least twice.
	// Set to 1 to also allow single-use factoring rectangles.
	MinRows int
	// OnBest, when non-nil, fires every time the incumbent best
	// rectangle is replaced during the search. The L-shaped
	// algorithm uses it to speculatively cover the incumbent's
	// cubes in the shared state table (§5.3).
	OnBest func(prev, next Rect)
	// Cover, when non-nil, values entries from its dense
	// covered-cube set — an entry is worth its Weight unless its
	// cube is covered — and supersedes the Valuer argument of
	// Best/BestK (which may then be nil). This is the fast path of
	// the greedy cover: membership is a bit test and per-column
	// claimable values are cached inside the Cover.
	Cover *Cover
}

const (
	defaultMaxCols   = 8
	defaultMaxVisits = 1 << 20
)

// Stats reports search effort, consumed by the virtual-time model.
type Stats struct {
	// Visits is the number of search-tree nodes expanded.
	Visits int
	// Evals is the number of rectangles whose gain was computed.
	Evals int
	// Truncated reports whether MaxVisits stopped the search early.
	Truncated bool
}

// Best returns the maximum-gain rectangle of m under val, or a
// zero-gain Rect with nil Rows when no rectangle has positive gain.
// Ties break deterministically (smallest column list, then smallest
// row list), so any partition of root columns across workers
// recombines to the same winner the sequential search finds.
func Best(m *kcm.Matrix, cfg Config, val Valuer) (Rect, Stats) {
	s := newSearcher(m, cfg, val)
	s.run(cfg.LeftmostCols)
	best, stats := s.best, s.stats
	s.release()
	return best, stats
}

func withDefaults(cfg Config) Config {
	if cfg.MaxCols == 0 {
		cfg.MaxCols = defaultMaxCols
	}
	if cfg.MaxVisits == 0 {
		cfg.MaxVisits = defaultMaxVisits
	}
	if cfg.MinRows == 0 {
		cfg.MinRows = 2
	}
	return cfg
}

// searcher is the sparse branch-and-bound enumerator. All per-depth
// state lives in a pooled scratch arena; once the arena has grown to
// the matrix, a visit allocates nothing.
type searcher struct {
	m     *kcm.Matrix
	ix    *kcm.Index
	cfg   Config
	val   Valuer
	cover *Cover
	best  Rect
	stats Stats
	// top collects ranked candidates when BestK batching is in
	// effect (topCap > 0).
	top    []Rect
	topCap int
	sc     *scratch
}

func newSearcher(m *kcm.Matrix, cfg Config, val Valuer) *searcher {
	s := &searcher{m: m, cfg: withDefaults(cfg), val: val, cover: cfg.Cover}
	s.ix = m.Index()
	s.sc = getScratch(len(s.ix.ColIDs), int(s.ix.MaxCubeID)+1, s.cfg.MaxCols)
	return s
}

// release returns the scratch arena to the pool. The searcher must not
// be used afterwards.
func (s *searcher) release() {
	// Depth 0 aliases the index's column lists; do not pin them.
	s.sc.rows[0], s.sc.ents[0] = nil, nil
	putScratch(s.sc)
	s.sc = nil
}

// value is the claimable value of one entry: the Cover fast path is a
// bit test, everything else goes through the generic Valuer.
func (s *searcher) value(e kcm.Entry) int {
	if s.cover != nil {
		if s.cover.set.Has(e.CubeID) {
			return 0
		}
		return e.Weight
	}
	return s.val(e)
}

// run enumerates the search tree from every permitted root column.
func (s *searcher) run(leftmost []int64) {
	roots := leftmost
	if roots == nil {
		roots = s.m.SortedColIDs()
	} else {
		roots = append([]int64(nil), roots...)
		sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	}
	sc := s.sc
	for _, c0 := range roots {
		dc, ok := s.ix.ColPos(c0)
		if !ok || len(s.ix.ColRowList[dc]) == 0 {
			continue
		}
		if s.rootValue(dc) == 0 {
			// Dominance prune: a rectangle containing a column
			// whose entries are all worth zero in its row set is
			// dominated by the same rectangle without that
			// column (more rows, same value, cheaper kernel), so
			// no best rectangle starts here.
			continue
		}
		// The root's row subset is the column list itself, with one
		// entry position per row: the column's position list.
		sc.rows[0] = s.ix.ColRowList[dc]
		sc.ents[0] = s.ix.ColEntryPos[dc]
		sc.cols[0] = c0
		sc.dcols[0] = dc
		sc.kcost[0] = s.ix.Cols[dc].Cube.Weight()
		s.recurse(1)
		if s.stats.Truncated {
			break
		}
	}
}

// rootValue sums the claimable values of a column's entries over its
// full row set — cached inside the Cover on the fast path.
func (s *searcher) rootValue(dc int) int {
	if s.cover != nil {
		return s.cover.colValue(s.ix, dc)
	}
	total := 0
	pos := s.ix.ColEntryPos[dc]
	for t, r := range s.ix.ColRowList[dc] {
		total += s.val(s.ix.Rows[r].Entries[pos[t]])
	}
	return total
}

// recurse expands the search-tree node whose chosen columns are
// sc.cols[:depth] and whose row subset is sc.rows[depth-1]. Each of
// those rows carries, in sc.ents[depth-1], the positions of its
// entries in the chosen columns: depth positions per row, row after
// row.
func (s *searcher) recurse(depth int) {
	s.stats.Visits++
	if s.stats.Visits > s.cfg.MaxVisits {
		s.stats.Truncated = true
		return
	}
	if depth >= 2 {
		s.evaluate(depth)
	}
	if depth >= s.cfg.MaxCols {
		return
	}
	sc := s.sc
	ix := s.ix
	rows, ents := sc.rows[depth-1], sc.ents[depth-1]
	// Candidate extensions: columns beyond the last chosen one present
	// in >= 1 of the current rows, carrying non-zero claimable value
	// (the zero-value dominance prune — see run). A row's entries right
	// of the last chosen column start just after that column's entry,
	// whose position the row carries. A column is marked and listed on
	// first touch, and only the listed marks are cleared afterwards.
	touched := sc.cand[depth][:0]
	for t, r := range rows {
		refs := ix.RowRefs[r]
		entries := ix.Rows[r].Entries
		for k := int(ents[t*depth+depth-1]) + 1; k < len(refs); k++ {
			dc := refs[k]
			v := s.value(entries[k])
			if !sc.mark.Test(int(dc)) {
				sc.mark.Set(int(dc))
				sc.acc[dc] = v
				touched = append(touched, dc)
			} else {
				sc.acc[dc] += v
			}
		}
	}
	// Walk candidates in increasing label order (== dense order) for
	// determinism.
	slices.Sort(touched)
	sc.cand[depth] = touched
	cand := touched[:0]
	for _, dc := range touched {
		sc.mark.Clear(int(dc))
		if sc.acc[dc] > 0 {
			cand = append(cand, dc)
		}
	}
	for _, dc := range cand {
		sc.rows[depth], sc.ents[depth] = intersect(sc.rows[depth][:0], sc.ents[depth][:0],
			rows, ents, depth, ix.ColRowList[dc], ix.ColEntryPos[dc])
		sc.cols[depth] = ix.ColIDs[dc]
		sc.dcols[depth] = int(dc)
		sc.kcost[depth] = sc.kcost[depth-1] + ix.Cols[dc].Cube.Weight()
		s.recurse(depth + 1)
		if s.stats.Truncated {
			return
		}
	}
}

// gallop is the length ratio beyond which intersect binary-searches
// the longer list instead of merging the two.
const gallop = 8

// intersect appends to dst the rows of the parent subset prows that
// also appear in the column list crows, and to dstEnts each kept row's
// w parent entry positions (from pents, w per row) followed by its
// position in the column (from cpos). Both lists are ascending, so the
// result is too: a linear merge when the lengths are comparable, a
// binary search into the longer list when one is much shorter.
func intersect(dst, dstEnts, prows, pents []int32, w int, crows, cpos []int32) ([]int32, []int32) {
	switch {
	case len(prows)*gallop < len(crows):
		ci := 0
		for pi, r := range prows {
			i, found := slices.BinarySearch(crows[ci:], r)
			ci += i
			if ci == len(crows) {
				break
			}
			if found {
				dst = append(dst, r)
				dstEnts = append(append(dstEnts, pents[pi*w:(pi+1)*w]...), cpos[ci])
				ci++
			}
		}
	case len(crows)*gallop < len(prows):
		pi := 0
		for ci, r := range crows {
			i, found := slices.BinarySearch(prows[pi:], r)
			pi += i
			if pi == len(prows) {
				break
			}
			if found {
				dst = append(dst, r)
				dstEnts = append(append(dstEnts, pents[pi*w:(pi+1)*w]...), cpos[ci])
				pi++
			}
		}
	default:
		pi, ci := 0, 0
		for pi < len(prows) && ci < len(crows) {
			switch a, b := prows[pi], crows[ci]; {
			case a < b:
				pi++
			case a > b:
				ci++
			default:
				dst = append(dst, a)
				dstEnts = append(append(dstEnts, pents[pi*w:(pi+1)*w]...), cpos[ci])
				pi++
				ci++
			}
		}
	}
	return dst, dstEnts
}

// evaluate computes the gain of the rectangle spanned by the chosen
// columns and the profitable subset of the current rows, updating
// best.
//
// Gain model (paper §2, validated against Examples 1.1 and 5.2): each
// row i rewrites its covered cubes into the single cube
// cokernel_i·X, so contributes Σ_j value(e_ij) − (|cokernel_i|+1);
// the new node X costs Σ_j |cube_j| literals. A cube claimed twice
// within one rectangle is counted once.
func (s *searcher) evaluate(depth int) {
	s.stats.Evals++
	sc := s.sc
	ix := s.ix
	newNodeCost := sc.kcost[depth-1]
	keep := sc.keep[:0]
	seenIDs := sc.seenIDs[:0]
	total := 0
	ents := sc.ents[depth-1]
	for t, r := range sc.rows[depth-1] {
		row := ix.Rows[r]
		rowVal := 0
		for _, k := range ents[t*depth : (t+1)*depth] {
			e := row.Entries[k]
			if sc.seen.Test(int(e.CubeID)) {
				continue
			}
			v := s.value(e)
			if v > 0 {
				sc.seen.Set(int(e.CubeID))
				seenIDs = append(seenIDs, e.CubeID)
			}
			rowVal += v
		}
		contrib := rowVal - (row.CoKernel.Weight() + 1)
		if contrib > 0 {
			keep = append(keep, row.ID)
			total += contrib
		}
	}
	for _, id := range seenIDs {
		sc.seen.Clear(int(id))
	}
	sc.seenIDs = seenIDs[:0]
	sc.keep = keep[:0]
	gain := total - newNodeCost
	if len(keep) < s.cfg.MinRows || gain <= 0 {
		return
	}
	cand := Rect{
		Rows: append([]int64(nil), keep...),
		Cols: append([]int64(nil), sc.cols[:depth]...),
		Gain: gain,
	}
	if s.topCap > 0 {
		s.recordTop(cand)
	}
	if s.better(cand) {
		if s.cfg.OnBest != nil {
			s.cfg.OnBest(s.best, cand)
		}
		s.best = cand
	}
}

// better reports whether cand should replace the current best, with a
// total deterministic order.
func (s *searcher) better(cand Rect) bool {
	cur := s.best
	if cur.Rows == nil {
		return true
	}
	if cand.Gain != cur.Gain {
		return cand.Gain > cur.Gain
	}
	if d := compareIDs(cand.Cols, cur.Cols); d != 0 {
		return d < 0
	}
	return compareIDs(cand.Rows, cur.Rows) < 0
}

// scratch is the per-search arena: the row subsets, entry positions
// and candidate columns per depth, the candidate marks and value
// accumulators of recurse, the seen-cube set of evaluate, and the
// chosen-column stacks. Arenas recycle through a sync.Pool and grow
// monotonically, so steady-state searches allocate only their result
// rectangles.
type scratch struct {
	rows    [][]int32  // per depth: ascending dense rows of the subset
	ents    [][]int32  // per depth d: d+1 entry positions per row
	cand    [][]int32  // per depth: candidate extension columns
	mark    bitset.Set // by dense column; always left zeroed
	acc     []int      // by dense column: claimable value, where marked
	seen    bitset.Set // by cube id; always left zeroed
	seenIDs []int64
	keep    []int64
	cols    []int64 // chosen column ids
	dcols   []int   // chosen dense columns
	kcost   []int   // prefix kernel cost of chosen columns
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(nCols, cubeBits, maxCols int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.ensure(nCols, cubeBits, maxCols)
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// ensure sizes the arena for a matrix of nCols columns, cube ids below
// cubeBits, and search depth maxCols, reusing prior capacity. The
// per-depth lists grow on demand as the search appends to them.
func (sc *scratch) ensure(nCols, cubeBits, maxCols int) {
	if grow := maxCols - len(sc.rows); grow > 0 {
		sc.rows = append(sc.rows, make([][]int32, grow)...)
		sc.ents = append(sc.ents, make([][]int32, grow)...)
		sc.cand = append(sc.cand, make([][]int32, grow)...)
		sc.cols = make([]int64, maxCols)
		sc.dcols = make([]int, maxCols)
		sc.kcost = make([]int, maxCols)
	}
	if nCols > len(sc.acc) {
		sc.acc = make([]int, nCols)
		sc.mark = bitset.New(nCols)
	}
	if bitset.Words(cubeBits) > len(sc.seen) {
		sc.seen = bitset.New(cubeBits)
	}
}

// CompareRects orders rectangles by descending gain with the same
// deterministic tie-break as the searcher; parallel workers use it to
// reduce their local winners to the global one.
func CompareRects(a, b Rect) int {
	switch {
	case a.Rows == nil && b.Rows == nil:
		return 0
	case a.Rows == nil:
		return 1
	case b.Rows == nil:
		return -1
	}
	if a.Gain != b.Gain {
		if a.Gain > b.Gain {
			return -1
		}
		return 1
	}
	if d := compareIDs(a.Cols, b.Cols); d != 0 {
		return d
	}
	return compareIDs(a.Rows, b.Rows)
}

func compareIDs(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SplitColumns deals the sorted column ids of m round-robin-by-block
// into p contiguous slices, Figure 1's "processor 1 gets the
// rectangles whose leftmost columns are in the left third" split.
func SplitColumns(m *kcm.Matrix, p int) [][]int64 {
	ids := m.SortedColIDs()
	out := make([][]int64, p)
	n := len(ids)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		out[i] = ids[lo:hi]
	}
	return out
}
