package limbo

import "context"

// NewStreamTree is the empty tree StreamTreeCtx would stream objs into,
// for tests that insert in lockstep with another tree.
func NewStreamTree(ctx context.Context, cfg Config, objs []Obj) *Tree {
	return newStreamTree(ctx, cfg, objs)
}

// Steer sets the tree's decision hook (Tree.steer).
func (t *Tree) Steer(f func(dist []float64, choice int) int) { t.steer = f }

// Unit is the information one δI unit of the tree's kernel stands for:
// 1 on a float tree, s₀ on a count tree.
func (t *Tree) Unit() float64 { return t.unit() }

// Counted reports whether the tree runs on the count kernel.
func (t *Tree) Counted() bool { return t.ck != nil }
