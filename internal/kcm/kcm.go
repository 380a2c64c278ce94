// Package kcm implements the co-kernel cube matrix (KC matrix) of
// Brayton et al. [1]: a sparse matrix whose rows are (node, co-kernel)
// pairs, whose columns are distinct kernel cubes, and whose non-zero
// entry (i,j) stands for the cube of node i's function formed by the
// union of co-kernel i and kernel-cube j (paper §2).
//
// The package also implements the paper's offset labeling scheme
// (§5.2): row, column and cube identifiers drawn by processor p start
// at p·Stride+1, so concurrently generated matrices carry globally
// consistent labels no matter the interleaving.
//
// Every matrix is built by a Patcher (patch.go): NewPatcher(p, opts)
// labels from p·Stride+1, Rebuild kernels across any number of
// workers and re-kernels only nodes marked dirty, and Build is a
// one-shot proc-0 Rebuild. The result is bit-identical for any worker
// count and any amount of cache reuse.
//
// The package is determinism-critical: label order drives the Figure 1
// enumeration, so iteration order must never depend on Go map order
// (DESIGN.md §7).
//
//repolint:determinism-critical
package kcm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kernels"
	"repro/internal/sop"
)

// Stride is the identifier offset between processors, exactly the
// paper's example: "the index of the first kernel in processor 2 will
// be 200001 while that in processor 5 be 500001".
const Stride = 100000

// Entry is one non-zero element of the matrix. It denotes a cube of
// the owning row's node function.
type Entry struct {
	// Col is the column (kernel cube) identifier.
	Col int64
	// CubeID globally identifies the function cube this entry
	// denotes. Distinct entries may share a CubeID: the cube a·f
	// appears both in row (F,a) column f and row (F,f) column a.
	CubeID int64
	// Weight is the literal count of the denoted function cube.
	Weight int
}

// Row is one (node, co-kernel) row.
type Row struct {
	// ID is the row label (offset scheme).
	ID int64
	// Node is the network variable whose function this row divides.
	Node sop.Var
	// CoKernel is the cube whose quotient is this row's kernel.
	CoKernel sop.Cube
	// Entries are the non-zero elements, sorted by Col.
	Entries []Entry
}

// Entry returns the entry in column col, if present.
func (r *Row) Entry(col int64) (Entry, bool) {
	i := sort.Search(len(r.Entries), func(i int) bool { return r.Entries[i].Col >= col })
	if i < len(r.Entries) && r.Entries[i].Col == col {
		return r.Entries[i], true
	}
	return Entry{}, false
}

// Col is one kernel-cube column.
type Col struct {
	// ID is the column label (offset scheme).
	ID int64
	// Cube is the kernel cube all entries of this column share.
	Cube sop.Cube
	// RowIDs lists the rows with an entry in this column, sorted.
	RowIDs []int64
	// unsorted is set when an AddRow appended a row id out of order;
	// sortColRows only pays for sorting on such columns.
	unsorted bool
	// pos is the column's index in Matrix.cols, letting the bulk
	// assemble path address per-column scratch by slice index instead
	// of map lookups.
	pos int32
}

// Matrix is a sparse co-kernel cube matrix. Every structural mutation
// must drop the cached derived views (sortedCols, the dense index) via
// invalidate; repolint's indexinvalidate analyzer enforces this for
// all exported entry points.
//
//repolint:invalidate invalidate
type Matrix struct {
	rows    []*Row
	cols    []*Col
	rowByID map[int64]*Row
	colByID map[int64]*Col
	// colTab interns columns by cube without materializing string
	// keys: an open-addressing table over the shared kernel-cube hash.
	colTab  colTable
	entries int
	// maxCubeID tracks the largest CubeID of any entry, sizing the
	// dense covered-cube bitsets of internal/rect.
	maxCubeID int64
	// sortedCols caches SortedColIDs; index caches the dense Index.
	// Both are dropped by any structural mutation (addRow, internCol).
	sortedCols []int64
	index      *Index
}

// invalidate drops the cached sorted-column list and dense index after
// a structural mutation.
func (m *Matrix) invalidate() {
	m.sortedCols = nil
	m.index = nil
}

// NewMatrix returns an empty matrix.
func NewMatrix() *Matrix {
	return &Matrix{
		rowByID: map[int64]*Row{},
		colByID: map[int64]*Col{},
	}
}

// Rows returns the rows in insertion order (read-only).
func (m *Matrix) Rows() []*Row { return m.rows }

// Cols returns the columns in insertion order (read-only).
func (m *Matrix) Cols() []*Col { return m.cols }

// Row returns the row labeled id, or nil.
func (m *Matrix) Row(id int64) *Row { return m.rowByID[id] }

// Col returns the column labeled id, or nil.
func (m *Matrix) Col(id int64) *Col { return m.colByID[id] }

// ColByCube returns the column holding the given kernel cube, or nil.
func (m *Matrix) ColByCube(c sop.Cube) *Col { return m.colTab.lookup(c) }

// NumEntries returns the number of non-zero elements.
func (m *Matrix) NumEntries() int { return m.entries }

// Sparsity returns the fraction of non-zero elements, the α and γ
// factors of the paper's Equation 3. An empty matrix has sparsity 0.
func (m *Matrix) Sparsity() float64 {
	if len(m.rows) == 0 || len(m.cols) == 0 {
		return 0
	}
	return float64(m.entries) / (float64(len(m.rows)) * float64(len(m.cols)))
}

// SortedColIDs returns all column ids in increasing label order; the
// divide-and-conquer search of §3 slices this list across processors.
// The result is cached until the next structural mutation (AddRow,
// InternColumn) and must be treated as read-only.
func (m *Matrix) SortedColIDs() []int64 {
	if m.sortedCols == nil && len(m.cols) > 0 {
		ids := make([]int64, len(m.cols))
		for i, c := range m.cols {
			ids[i] = c.ID
		}
		slices.Sort(ids)
		m.sortedCols = ids
	}
	return m.sortedCols
}

// MaxCubeID returns the largest CubeID appearing in any entry (0 for
// an empty matrix). Dense covered-cube sets are sized by it.
func (m *Matrix) MaxCubeID() int64 { return m.maxCubeID }

// InternColumn returns the column for cube, creating it with the
// given id on first sight. An existing column keeps its original id.
func (m *Matrix) InternColumn(cube sop.Cube, id int64) *Col {
	return m.internCol(cube, id)
}

// AddRow inserts a fully-formed row whose entries refer to already
// interned column ids, wiring the column back-references. Callers
// inserting many rows should call SortColRows afterwards.
func (m *Matrix) AddRow(r *Row) {
	m.addRow(r)
}

// SortColRows restores the sorted-rows invariant on all columns after
// bulk AddRow insertion.
func (m *Matrix) SortColRows() {
	m.sortColRows()
}

// internCol returns the column for cube, creating it with the given
// id on first sight. An existing column keeps its original id.
func (m *Matrix) internCol(cube sop.Cube, id int64) *Col {
	h := kernels.HashCube(cube)
	if c := m.colTab.lookupHashed(h, cube); c != nil {
		return c
	}
	c := &Col{ID: id, Cube: cube, pos: int32(len(m.cols))}
	m.cols = append(m.cols, c)
	m.colTab.insert(h, c)
	m.colByID[id] = c
	m.invalidate()
	return c
}

// addRow inserts a fully-formed row, wiring column back-references.
// Entries must already refer to interned column ids.
func (m *Matrix) addRow(r *Row) {
	slices.SortFunc(r.Entries, compareEntries)
	m.rows = append(m.rows, r)
	m.rowByID[r.ID] = r
	for _, e := range r.Entries {
		col := m.colByID[e.Col]
		if n := len(col.RowIDs); n > 0 && col.RowIDs[n-1] > r.ID {
			col.unsorted = true
		}
		col.RowIDs = append(col.RowIDs, r.ID)
		m.entries++
		if e.CubeID > m.maxCubeID {
			m.maxCubeID = e.CubeID
		}
	}
	m.invalidate()
}

// sortColRows restores the sorted-row invariant on all columns; called
// after bulk insertion. Only columns that actually saw an out-of-order
// insertion pay for a sort.
func (m *Matrix) sortColRows() {
	for _, c := range m.cols {
		if !c.unsorted {
			continue
		}
		slices.Sort(c.RowIDs)
		c.unsorted = false
	}
}

func compareEntries(a, b Entry) int { return cmp.Compare(a.Col, b.Col) }

func sortEntrySlice(entries []Entry) { slices.SortFunc(entries, compareEntries) }

// colTable is an open-addressing hash table interning columns by their
// kernel cube. It replaces a map keyed by Cube.Key() strings, whose
// materialization dominated the matrix-build allocation profile.
type colTable struct {
	slots []*Col
	hash  []uint64
	n     int
}

// lookup returns the column holding cube c, or nil.
func (t *colTable) lookup(c sop.Cube) *Col {
	return t.lookupHashed(kernels.HashCube(c), c)
}

func (t *colTable) lookupHashed(h uint64, c sop.Cube) *Col {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != nil; i = (i + 1) & mask {
		if t.hash[i] == h && t.slots[i].Cube.Equal(c) {
			return t.slots[i]
		}
	}
	return nil
}

// insert adds a column whose cube is known to be absent.
func (t *colTable) insert(h uint64, col *Col) {
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = col
	t.hash[i] = h
	t.n++
}

func (t *colTable) grow() {
	oldSlots, oldHash := t.slots, t.hash
	size := 64
	if len(oldSlots) > 0 {
		size = len(oldSlots) * 2
	}
	t.slots = make([]*Col, size)
	t.hash = make([]uint64, size)
	mask := uint64(size - 1)
	for j, c := range oldSlots {
		if c == nil {
			continue
		}
		i := oldHash[j] & mask
		for t.slots[i] != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = c
		t.hash[i] = oldHash[j]
	}
}

// Dump renders the matrix as a table resembling the paper's Figure 2,
// with column cubes across the top and one line per row showing the
// cube id of every entry.
func (m *Matrix) Dump(names *sop.Names) string {
	cols := append([]*Col(nil), m.cols...)
	sort.Slice(cols, func(i, j int) bool { return cols[i].ID < cols[j].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s |", "row(co-kernel)", "id")
	for _, c := range cols {
		fmt.Fprintf(&b, " %8s", c.Cube.Format(names.Fmt()))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s %8s |", "", "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %8d", c.ID)
	}
	b.WriteByte('\n')
	for _, r := range m.rows {
		label := fmt.Sprintf("%s %s", names.Name(r.Node), r.CoKernel.Format(names.Fmt()))
		fmt.Fprintf(&b, "%-14s %8d |", label, r.ID)
		for _, c := range cols {
			if e, ok := r.Entry(c.ID); ok {
				fmt.Fprintf(&b, " %8d", e.CubeID)
			} else {
				fmt.Fprintf(&b, " %8s", ".")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
