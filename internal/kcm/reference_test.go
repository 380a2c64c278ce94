package kcm

import (
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// Builder is the reference KC-matrix construction the Patcher is
// checked against: it kernels and labels one node at a time, drawing
// row, column and cube identifiers from a processor-specific offset
// range (paper §5.2), with no proto cache, no arenas and no separate
// assemble pass. Tests assert Patcher output is bit-identical to it.
type Builder struct {
	m       *Matrix
	rowSeq  int64
	colSeq  int64
	cubeSeq int64
	opts    kernels.Options
	// cubeIDs assigns one global id per (node, function cube) via a
	// hashed two-level index: first level by node, second an
	// open-addressing table over the cube hash.
	cubeIDs map[sop.Var]*cubeTable
	kern    kernels.Kerneler
	pairs   []kernels.Pair
}

// NewBuilder returns a builder whose labels start at proc·Stride+1.
// proc 0 therefore labels from 1, proc 1 from 100001, matching the
// paper's Example 5.1.
func NewBuilder(proc int, opts kernels.Options) *Builder {
	base := int64(proc) * Stride
	return &Builder{
		m:       NewMatrix(),
		rowSeq:  base,
		colSeq:  base,
		cubeSeq: base,
		opts:    opts,
		cubeIDs: map[sop.Var]*cubeTable{},
	}
}

// AddNode generates the kernels of node v's function and adds one row
// per (kernel, co-kernel) pair. It returns the number of rows added.
func (b *Builder) AddNode(nw *network.Network, v sop.Var) int {
	nd := nw.Node(v)
	if nd == nil {
		return 0
	}
	return b.AddFunction(v, nd.Fn)
}

// AddFunction is AddNode for an explicit function.
func (b *Builder) AddFunction(v sop.Var, fn sop.Expr) int {
	b.pairs = b.kern.All(fn, b.opts, nil, nil, b.pairs[:0])
	for _, p := range b.pairs {
		b.rowSeq++
		row := &Row{ID: b.rowSeq, Node: v, CoKernel: p.CoKernel}
		row.Entries = make([]Entry, 0, p.Kernel.NumCubes())
		for _, kc := range p.Kernel.Cubes() {
			col := b.internColumn(kc)
			fc, ok := p.CoKernel.Union(kc)
			if !ok {
				continue // contradictory: not a real function cube
			}
			row.Entries = append(row.Entries, Entry{
				Col:    col.ID,
				CubeID: b.cubeID(v, fc),
				Weight: fc.Weight(),
			})
		}
		b.m.addRow(row)
	}
	return len(b.pairs)
}

func (b *Builder) internColumn(cube sop.Cube) *Col {
	if c := b.m.ColByCube(cube); c != nil {
		return c
	}
	b.colSeq++
	return b.m.internCol(cube, b.colSeq)
}

func (b *Builder) cubeID(v sop.Var, fc sop.Cube) int64 {
	t := b.cubeIDs[v]
	if t == nil {
		t = &cubeTable{}
		b.cubeIDs[v] = t
	}
	h := kernels.HashCube(fc)
	if id, ok := t.lookup(h, fc); ok {
		return id
	}
	b.cubeSeq++
	t.insert(h, fc, b.cubeSeq)
	return b.cubeSeq
}

// Matrix returns the matrix built so far, with column row-lists
// restored to sorted order.
func (b *Builder) Matrix() *Matrix {
	b.m.sortColRows()
	return b.m
}

// referenceBuild builds the matrix of nodes with a proc-labelled
// reference Builder.
func referenceBuild(nw *network.Network, nodes []sop.Var, proc int, opts kernels.Options) *Matrix {
	b := NewBuilder(proc, opts)
	for _, v := range nodes {
		b.AddNode(nw, v)
	}
	return b.Matrix()
}
