package kcm

import "repro/internal/analysis/invariant"

// checkIndex cross-checks a freshly built dense Index against the
// map-backed matrix it snapshots: dense numbering must follow strictly
// increasing label order (the property the Figure 1 enumeration order
// rests on), every matrix entry must appear in exactly the right row
// reference, every column list must be strictly ascending with each
// stored position pointing back at that column in RowRefs, and the
// column lists must hold exactly as many entries as the matrix so no
// stale entry survives. Runs only under the invariants build tag
// (invariant.Enabled gates every call site).
func checkIndex(m *Matrix, ix *Index) {
	for i := 1; i < len(ix.RowIDs); i++ {
		invariant.Assert(ix.RowIDs[i-1] < ix.RowIDs[i],
			"dense row order broken: RowIDs[%d]=%d >= RowIDs[%d]=%d", i-1, ix.RowIDs[i-1], i, ix.RowIDs[i])
	}
	for j := 1; j < len(ix.ColIDs); j++ {
		invariant.Assert(ix.ColIDs[j-1] < ix.ColIDs[j],
			"dense column order broken: ColIDs[%d]=%d >= ColIDs[%d]=%d", j-1, ix.ColIDs[j-1], j, ix.ColIDs[j])
	}
	for i, r := range ix.Rows {
		invariant.Assert(len(ix.RowRefs[i]) == len(r.Entries),
			"row %d: %d dense refs for %d entries", r.ID, len(ix.RowRefs[i]), len(r.Entries))
		for k, e := range r.Entries {
			j, ok := ix.ColPos(e.Col)
			invariant.Assert(ok, "row %d entry col %d missing from dense index", r.ID, e.Col)
			invariant.Assert(int(ix.RowRefs[i][k]) == j,
				"row %d entry %d: dense ref %d != col pos %d", r.ID, k, ix.RowRefs[i][k], j)
		}
	}
	listed := 0
	for j, rows := range ix.ColRowList {
		pos := ix.ColEntryPos[j]
		invariant.Assert(len(pos) == len(rows),
			"col %d: %d entry positions for %d rows", ix.ColIDs[j], len(pos), len(rows))
		for t, i := range rows {
			invariant.Assert(t == 0 || rows[t-1] < i,
				"col %d: row list not strictly ascending at %d", ix.ColIDs[j], t)
			k := int(pos[t])
			invariant.Assert(k >= 0 && k < len(ix.RowRefs[i]) && int(ix.RowRefs[i][k]) == j,
				"col %d: dense row %d position %d does not point back at the column", ix.ColIDs[j], i, k)
		}
		listed += len(rows)
	}
	invariant.Assert(listed == m.entries,
		"column lists hold %d entries for %d matrix entries (stale or missing invalidation)", listed, m.entries)
	invariant.Assert(ix.MaxCubeID == m.maxCubeID,
		"index MaxCubeID %d != matrix %d", ix.MaxCubeID, m.maxCubeID)
}
