package kcm

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sop"
)

// requireColumnLists checks the column side of m's dense index against
// the matrix itself: each column list names exactly the rows of
// Col.RowIDs, in the same ascending order, and each stored position
// finds that row's entry in the column.
func requireColumnLists(t *testing.T, m *Matrix) {
	t.Helper()
	ix := m.Index()
	if len(ix.ColRowList) != len(ix.Cols) || len(ix.ColEntryPos) != len(ix.Cols) {
		t.Fatalf("%d column lists, %d position lists for %d columns",
			len(ix.ColRowList), len(ix.ColEntryPos), len(ix.Cols))
	}
	listed := 0
	for j, c := range ix.Cols {
		rows, pos := ix.ColRowList[j], ix.ColEntryPos[j]
		if len(rows) != len(c.RowIDs) || len(pos) != len(c.RowIDs) {
			t.Fatalf("col %d: list has %d rows and %d positions, RowIDs has %d",
				c.ID, len(rows), len(pos), len(c.RowIDs))
		}
		for k, i := range rows {
			if got := ix.RowIDs[i]; got != c.RowIDs[k] {
				t.Fatalf("col %d: list row %d is %d, RowIDs has %d", c.ID, k, got, c.RowIDs[k])
			}
			if e := ix.Rows[i].Entries[pos[k]]; e.Col != c.ID {
				t.Fatalf("col %d: row %d position %d holds column %d", c.ID, ix.RowIDs[i], pos[k], e.Col)
			}
		}
		listed += len(rows)
	}
	if listed != m.NumEntries() {
		t.Fatalf("column lists hold %d entries, matrix has %d", listed, m.NumEntries())
	}
}

func TestIndexColumnListsMatchRowIDs(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		nw, nodes := randomNetwork(r, 4+r.Intn(8))
		pat := NewPatcher(int(seed%3), kernels.Options{})
		requireColumnLists(t, pat.Rebuild(ctx, nw, nodes, 1))

		// Incremental rebuilds: drop a cube from some nodes, mark
		// them dirty, and rebuild from the patcher's cache.
		for round := 0; round < 3; round++ {
			for _, v := range nodes {
				fn := nw.Node(v).Fn
				if r.Intn(2) == 0 || fn.NumCubes() < 3 {
					continue
				}
				if err := nw.SetFn(v, sop.NewExpr(fn.Cubes()[1:]...)); err != nil {
					t.Fatalf("SetFn: %v", err)
				}
				pat.MarkDirty(v)
			}
			requireColumnLists(t, pat.Rebuild(ctx, nw, nodes, 1+round))
		}
	}
}
