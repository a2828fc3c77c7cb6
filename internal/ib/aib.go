// Package ib implements the Agglomerative Information Bottleneck (AIB)
// algorithm of Slonim & Tishby, the engine behind every clustering task in
// the paper. Objects are distributional cluster summaries (a mass p(c) and
// a conditional p(T|c)); at each step the pair whose merge loses the least
// mutual information about T is merged, per equation (3):
//
//	δI(c1, c2) = [p(c1)+p(c2)] · D_JS[p(T|c1), p(T|c2)]
//
// The engine evaluates δI on the clusters' weighted sums
// s = p(c)·p(T|c), with x·log₂x cached per sum (kernel.go): there
// equation (3) reduces to a sum over the coordinates both supports
// share, and only those take a logarithm. Equation (3) itself, it.DeltaI
// on the mixed conditionals, is the independent oracle the tests hold
// every merge to.
//
// The full merge sequence is recorded, so callers can extract the
// clustering at any k, the information curves I(Ck;T) and H(Ck|T), and a
// dendrogram of the merges.
package ib

import (
	"context"
	"fmt"

	"structmine/internal/it"
)

// Object is one item to be clustered: a probability mass and a
// conditional distribution over the feature variable T.
type Object struct {
	Label string  // human-readable name (attribute, value, tuple id, ...)
	P     float64 // p(c)
	Cond  it.Vec  // p(T|c)
}

// Merge records one agglomerative step.
type Merge struct {
	// Left and Right are dendrogram node ids: ids < q denote input
	// objects; ids ≥ q denote earlier merge results (id q+i is the
	// result of Merges[i]).
	Left, Right int
	Node        int     // id of the merged node
	Loss        float64 // δI of this merge
	K           int     // number of clusters remaining after the merge
}

// Result is the outcome of an agglomerative run.
type Result struct {
	Objects []Object
	Merges  []Merge

	// parent[node] is the merge node that absorbed node, or -1.
	parent []int
}

// pairItem is a candidate merge in the priority queue. Stale items (whose
// endpoints have since merged) are discarded lazily on pop.
type pairItem struct {
	loss float64
	a, b int // node ids
}

// lessPair is the strict total order of the candidate queue: loss first,
// then (a, b) as a deterministic tie-break for reproducible dendrograms.
// Because the order is total and every (a, b) pair is enqueued at most
// once, candidates pop in the same sequence no matter how the heap was
// built — the determinism guarantee the parallel engine relies on.
func lessPair(x, y pairItem) bool {
	if x.loss != y.loss {
		return x.loss < y.loss
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// AgglomerateKCtx runs AIB until k clusters remain (k = 1 runs it until
// a single cluster remains, or until the objects are exhausted) and
// returns the full merge sequence, under the context's worker budget (a
// scheduler grant or a fixed exec.WithWorkers budget; a bare context
// falls back to GOMAXPROCS). Candidate δI values are computed in
// parallel (see parallel.go); the merge sequence is bit-identical to
// AgglomerateKSerial's for any worker budget.
func AgglomerateKCtx(ctx context.Context, objects []Object, k int) *Result {
	q := len(objects)
	res := &Result{Objects: objects}
	if q == 0 || k >= q {
		res.parent = make([]int, q)
		for i := range res.parent {
			res.parent[i] = -1
		}
		return res
	}
	if k < 1 {
		k = 1
	}
	// Node id space: 0..q-1 inputs, q..2q-2 merge results.
	res.parent = make([]int, q, 2*q-1)
	for i := range res.parent {
		res.parent[i] = -1
	}
	e := newEngine(ctx, objects)
	for e.aliveCount > k {
		if !e.step(res) {
			// Should not happen; defensive.
			break
		}
	}
	return res
}

// NumObjects returns q, the number of input objects.
func (r *Result) NumObjects() int { return len(r.Objects) }

// Members returns the input-object indices under dendrogram node id, in
// left-to-right dendrogram order. The walk is iterative with an explicit
// stack — the earlier recursive version re-copied every subtree slice on
// the way up, going quadratic on chain-shaped dendrograms — and the
// output is allocated once at exactly the subtree's leaf count.
func (r *Result) Members(node int) []int {
	q := len(r.Objects)
	if node < q {
		return []int{node}
	}
	// First pass: count leaves so the output can be sized exactly.
	stack := make([]int, 1, 64)
	stack[0] = node
	leaves := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n < q {
			leaves++
			continue
		}
		m := r.Merges[n-q]
		stack = append(stack, m.Left, m.Right)
	}
	out := make([]int, 0, leaves)
	stack = append(stack[:0], node)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n < q {
			out = append(out, n)
			continue
		}
		m := r.Merges[n-q]
		// Right pushed first so Left pops first, preserving the
		// left-subtree-then-right-subtree order of the recursion.
		stack = append(stack, m.Right, m.Left)
	}
	return out
}

// ClustersAt returns the clustering with k clusters as groups of input
// object indices. k must be between max(1, q-len(Merges)) and q.
func (r *Result) ClustersAt(k int) ([][]int, error) {
	q := len(r.Objects)
	if q == 0 {
		return nil, nil
	}
	minK := q - len(r.Merges)
	if k < minK || k > q {
		return nil, fmt.Errorf("ib: k=%d out of range [%d, %d]", k, minK, q)
	}
	// Roots after applying the first q-k merges.
	applied := q - k
	parent := make([]int, q+applied)
	for i := range parent {
		parent[i] = -1
	}
	for i := 0; i < applied; i++ {
		m := r.Merges[i]
		parent[m.Left] = m.Node
		parent[m.Right] = m.Node
	}
	var out [][]int
	for node := range parent {
		if parent[node] == -1 {
			out = append(out, r.Members(node))
		}
	}
	return out, nil
}

// ClusterDCFsAt returns, for the k-clustering, each cluster's mass and
// mixed conditional — the representatives used by LIMBO's Phase 3.
func (r *Result) ClusterDCFsAt(k int) ([]Object, error) {
	groups, err := r.ClustersAt(k)
	if err != nil {
		return nil, err
	}
	out := make([]Object, len(groups))
	for gi, g := range groups {
		p := 0.0
		for _, i := range g {
			p += r.Objects[i].P
		}
		var cond it.Vec
		for _, i := range g {
			if p > 0 {
				cond = it.Mix(1, cond, r.Objects[i].P/p, r.Objects[i].Cond)
			}
		}
		label := ""
		if len(g) == 1 {
			label = r.Objects[g[0]].Label
		} else {
			label = fmt.Sprintf("cluster(%d objects)", len(g))
		}
		out[gi] = Object{Label: label, P: p, Cond: cond}
	}
	return out, nil
}

// InfoPoint is one point of the information curves along the merge
// sequence.
type InfoPoint struct {
	K      int     // number of clusters
	I      float64 // I(Ck; T)
	H      float64 // H(Ck)
	HCondT float64 // H(Ck | T) = H(Ck) - I(Ck;T)
	Loss   float64 // δI of the merge that produced this k (0 for k = q)
}

// InfoCurve returns the information trajectory from k = q down to the
// final k, computing I(Cq;T) exactly from the input objects and then
// subtracting each merge loss (Tishby et al.'s telescoping identity,
// verified against direct computation in tests).
func (r *Result) InfoCurve() []InfoPoint {
	q := len(r.Objects)
	if q == 0 {
		return nil
	}
	px := make([]float64, q)
	cond := make([]it.Vec, q)
	for i, o := range r.Objects {
		px[i] = o.P
		cond[i] = o.Cond
	}
	joint := &it.JointDist{PX: px, CondT: cond}
	iCur := joint.MutualInfo()

	masses := append([]float64(nil), px...)
	hCur := it.EntropyDense(masses)

	curve := []InfoPoint{{K: q, I: iCur, H: hCur, HCondT: hCur - iCur}}
	for _, m := range r.Merges {
		iCur -= m.Loss
		if iCur < 0 {
			iCur = 0
		}
		// Merging c1, c2 changes H(C) by: remove the two masses, add the sum.
		p1 := massOf(masses, m.Left)
		p2 := massOf(masses, m.Right)
		masses = append(masses, p1+p2)
		hCur = hCur + it.XLog2(p1) + it.XLog2(p2) - it.XLog2(p1+p2)
		curve = append(curve, InfoPoint{K: m.K, I: iCur, H: hCur, HCondT: hCur - iCur, Loss: m.Loss})
	}
	return curve
}

func massOf(masses []float64, node int) float64 { return masses[node] }

// MaxLoss returns the largest single-merge information loss in the
// sequence (the paper's max(Q), the initial rank in FD-RANK).
func (r *Result) MaxLoss() float64 {
	mx := 0.0
	for _, m := range r.Merges {
		if m.Loss > mx {
			mx = m.Loss
		}
	}
	return mx
}

// CutAtLoss returns the clustering obtained by applying only the merges
// whose loss is at most maxLoss, in merge order — the horizontal cut an
// analyst makes on the dendrogram's loss axis (e.g. "groups below 50% of
// max loss", the ψ·max(Q) cut of FD-RANK). Merges are applied prefix-
// wise: the cut stops at the first merge exceeding the bound, so the
// result is always a valid clustering from the sequence.
func (r *Result) CutAtLoss(maxLoss float64) [][]int {
	applied := 0
	for _, m := range r.Merges {
		if m.Loss > maxLoss {
			break
		}
		applied++
	}
	k := len(r.Objects) - applied
	if k < 1 {
		k = 1
	}
	groups, err := r.ClustersAt(k)
	if err != nil {
		return nil
	}
	return groups
}
