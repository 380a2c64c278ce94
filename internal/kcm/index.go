package kcm

import (
	"sort"

	"repro/internal/analysis/invariant"
)

// Index is the dense fast-path view of a Matrix that the rectangle
// search runs on: rows and columns renumbered 0..n-1 in increasing
// label order, and the entries stored twice, as row lists (CSR) and
// column lists (CSC). RowRefs[i] lists the dense columns of row i
// aligned with Rows[i].Entries; ColRowList[j] lists the dense rows of
// column j, and ColEntryPos[j] where each of those rows keeps its
// entry in column j. Both families are ascending, so a search visit
// walks only the rows and entries it touches, never the full matrix
// width.
//
// Dense positions follow label order, so walking a column list front
// to back reproduces exactly the increasing-label search order of the
// Figure 1 enumeration — the property the §3 leftmost-column
// decomposition and all tie-breaking depend on.
//
// An Index is a snapshot: it is built lazily by Matrix.Index, cached,
// and dropped on any structural mutation. Callers must not mutate it.
type Index struct {
	// RowIDs and ColIDs map dense positions back to labels, each in
	// ascending label order.
	RowIDs []int64
	ColIDs []int64
	// Rows and Cols hold the corresponding *Row/*Col per dense
	// position.
	Rows []*Row
	Cols []*Col
	// RowRefs[i][k] is the dense column of Rows[i].Entries[k]. Since
	// entries are sorted by label and dense order follows label
	// order, each RowRefs[i] is ascending.
	RowRefs [][]int32
	// ColRowList[j] lists the dense rows with an entry in dense
	// column j, ascending. ColEntryPos[j][t] is the position of that
	// entry in Rows[ColRowList[j][t]].Entries.
	ColRowList  [][]int32
	ColEntryPos [][]int32
	// MaxCubeID mirrors Matrix.MaxCubeID at build time.
	MaxCubeID int64

	colPos map[int64]int32
}

// Index returns the dense view of the matrix, building and caching it
// on first use. The returned index is shared and read-only; it remains
// valid until the next structural mutation of the matrix.
func (m *Matrix) Index() *Index {
	if m.index != nil {
		return m.index
	}
	nr, nc := len(m.rows), len(m.cols)
	ix := &Index{
		RowIDs:      make([]int64, nr),
		ColIDs:      make([]int64, nc),
		Rows:        make([]*Row, nr),
		Cols:        make([]*Col, nc),
		RowRefs:     make([][]int32, nr),
		ColRowList:  make([][]int32, nc),
		ColEntryPos: make([][]int32, nc),
		colPos:      make(map[int64]int32, nc),

		MaxCubeID: m.maxCubeID,
	}
	copy(ix.Rows, m.rows)
	sort.Slice(ix.Rows, func(i, j int) bool { return ix.Rows[i].ID < ix.Rows[j].ID })
	for i, r := range ix.Rows {
		ix.RowIDs[i] = r.ID
	}
	copy(ix.Cols, m.cols)
	sort.Slice(ix.Cols, func(i, j int) bool { return ix.Cols[i].ID < ix.Cols[j].ID })
	for j, c := range ix.Cols {
		ix.ColIDs[j] = c.ID
		ix.colPos[c.ID] = int32(j)
	}
	// One backing allocation per list family. Column lists are carved
	// by the column counts of the row pass and filled in ascending row
	// order, so each one comes out sorted.
	refs := make([]int32, m.entries)
	colLen := make([]int, nc)
	for i, r := range ix.Rows {
		ix.RowRefs[i] = refs[:len(r.Entries):len(r.Entries)]
		refs = refs[len(r.Entries):]
		for k, e := range r.Entries {
			j := ix.colPos[e.Col]
			ix.RowRefs[i][k] = j
			colLen[j]++
		}
	}
	colRows, colPos := make([]int32, m.entries), make([]int32, m.entries)
	for j, n := range colLen {
		ix.ColRowList[j] = colRows[:0:n]
		ix.ColEntryPos[j] = colPos[:0:n]
		colRows, colPos = colRows[n:], colPos[n:]
	}
	for i, refs := range ix.RowRefs {
		for k, j := range refs {
			ix.ColRowList[j] = append(ix.ColRowList[j], int32(i))
			ix.ColEntryPos[j] = append(ix.ColEntryPos[j], int32(k))
		}
	}
	if invariant.Enabled {
		checkIndex(m, ix)
	}
	m.index = ix
	return ix
}

// ColPos returns the dense position of column id.
func (ix *Index) ColPos(id int64) (int, bool) {
	p, ok := ix.colPos[id]
	return int(p), ok
}
