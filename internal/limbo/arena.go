package limbo

import (
	"context"

	"structmine/internal/exec"
)

// arena is the Tree-owned allocation front-end behind Phase 1's
// allocation budget: DCF structs, tree nodes/entries and the sparse-sum
// buffers are carved out of large slabs, so streaming 50k objects costs
// O(slabs) allocations instead of O(inserts). The slabs themselves come
// from the execution engine (internal/exec): the numeric tiers live in
// an exec.Arena — pooled across jobs when the tree is built under a
// scheduler grant — and the typed structs in exec.Structs slabs that die
// with the Tree. Chunks are never freed individually; a buffer outgrown
// by consolidation is simply abandoned inside its slab (bounded waste:
// growth is geometric, so total carve volume is a constant factor of the
// live size).
//
// The arena is single-goroutine like the Tree that owns it. When the
// numeric arena is pooled, nothing carved from it may outlive the
// grant — the Tree and its DCFs are job-local, and every task result is
// rebuilt from plain values (the exec aliasing contract).
type arena struct {
	num   *exec.Arena
	dcfs  exec.Structs[DCF]
	ents  exec.Structs[entry]
	eptrs exec.Structs[*entry]
	nodes exec.Structs[node]
}

// init points the numeric slabs at the context's pooled arena (or a
// private one without a grant). Called once by NewTreeCtx.
func (a *arena) init(ctx context.Context) { a.num = exec.CheckoutArena(ctx) }

// int32s carves a zero-length chunk with capacity c.
func (a *arena) int32s(c int) []int32 { return a.num.Int32s(c) }

// float64s carves a zero-length chunk with capacity c.
func (a *arena) float64s(c int) []float64 { return a.num.Float64s(c) }

func (a *arena) dcf() *DCF { return a.dcfs.New() }

func (a *arena) entry() *entry { return a.ents.New() }

func (a *arena) node() *node { return a.nodes.New() }

// entrySlice carves a zero-length entry-pointer slice with capacity c
// (a node's child list; c is B+1 so the pre-split overflow never grows
// it).
func (a *arena) entrySlice(c int) []*entry { return a.eptrs.Slice(c) }

// newDCF builds a singleton DCF inside the arena from a preloaded
// object context, reusing its already-computed logarithms.
func (a *arena) newDCF(o Obj, c *objCtx) *DCF {
	d := a.dcf()
	d.W = o.W
	d.wlog = c.wlog
	d.N = 1
	d.FirstID = o.ID
	d.idx = append(a.int32s(len(c.idx)), c.idx...)
	d.val = append(a.float64s(len(c.s)), c.s...)
	d.vlog = append(a.float64s(len(c.slog)), c.slog...)
	return d
}

// cloneDCF deep-copies src into the arena (the wrap step of node
// splits).
func (a *arena) cloneDCF(src *DCF) *DCF {
	d := a.dcf()
	d.W = src.W
	d.wlog = src.wlog
	d.N = src.N
	d.FirstID = src.FirstID
	d.idx = append(a.int32s(len(src.idx)), src.idx...)
	d.val = append(a.float64s(len(src.val)), src.val...)
	d.vlog = append(a.float64s(len(src.vlog)), src.vlog...)
	d.tidx = append(a.int32s(len(src.tidx)), src.tidx...)
	d.tval = append(a.float64s(len(src.tval)), src.tval...)
	d.tvlog = append(a.float64s(len(src.tvlog)), src.tvlog...)
	return d
}
