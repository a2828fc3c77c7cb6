package ib

import (
	"container/heap"

	"structmine/internal/it"
)

// refHeap is the container/heap priority queue of the original serial
// engine, retained for the reference implementation below (and
// modernized from interface{} to any while here). The production engine
// uses the boxing-free minHeap in heap.go instead.
type refHeap []pairItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return lessPair(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pairItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// AgglomerateSerial runs the single-threaded reference engine to one
// cluster. See AgglomerateKSerial.
func AgglomerateSerial(objects []Object) *Result {
	return AgglomerateKSerial(objects, 1)
}

// AgglomerateKSerial is the single-threaded reference engine, kept as
// the differential-testing oracle and benchmark baseline for the
// parallel engine. It mirrors the engine's arithmetic — clusters in
// weighted-sum form (kernel.go), merged by mergeClusters — with plain
// loops: every pair pushed one by one onto a container/heap queue, and
// δI by a two-pointer walk of both supports over the original
// coordinates instead of a remap and a scatter table. Property tests
// assert both produce bit-identical merge sequences, and
// BenchmarkAgglomerate measures the speedup against it. Equation (3)
// itself (it.DeltaI) is the independent oracle both are held to
// (TestAIBIsGreedyOnEquation3). New callers should use AgglomerateKCtx.
func AgglomerateKSerial(objects []Object, k int) *Result {
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
	clusters := make([]cluster, q, 2*q-1)
	alive := make([]bool, q, 2*q-1)
	for i, o := range objects {
		clusters[i] = newCluster(o)
		alive[i] = true
	}
	res.parent = make([]int, q, 2*q-1)
	for i := range res.parent {
		res.parent[i] = -1
	}

	h := &refHeap{}
	for i := 0; i < q; i++ {
		for j := i + 1; j < q; j++ {
			heap.Push(h, pairItem{loss: deltaIWalk(&clusters[i], &clusters[j]), a: i, b: j})
		}
	}

	aliveCount := q
	for aliveCount > k {
		var top pairItem
		for {
			if h.Len() == 0 {
				// Should not happen; defensive.
				return res
			}
			top = heap.Pop(h).(pairItem)
			if alive[top.a] && alive[top.b] {
				break
			}
		}
		node := len(clusters)
		clusters = append(clusters, mergeClusters(&clusters[top.a], &clusters[top.b]))
		alive[top.a], alive[top.b] = false, false
		alive = append(alive, true)
		res.parent[top.a], res.parent[top.b] = node, node
		res.parent = append(res.parent, -1)
		aliveCount--
		res.Merges = append(res.Merges, Merge{
			Left: top.a, Right: top.b, Node: node, Loss: top.loss, K: aliveCount,
		})
		for id := 0; id < node; id++ {
			if alive[id] {
				heap.Push(h, pairItem{loss: deltaIWalk(&clusters[id], &clusters[node]), a: id, b: node})
			}
		}
	}
	return res
}

// deltaIWalk is deltaI (kernel.go) by a two-pointer walk of both
// supports: the same shared terms, accumulated in the same order (c's
// ascending coordinates), hence the same bits.
func deltaIWalk(c, n *cluster) float64 {
	res := it.XLog2(c.p+n.p) - c.plog - n.plog
	shared, prop := 0, true
	j := 0
	for k, ix := range c.idx {
		for j < len(n.idx) && n.idx[j] < ix {
			j++
		}
		if j == len(n.idx) {
			break
		}
		if n.idx[j] != ix {
			continue
		}
		s1, s2 := c.s[k], n.s[j]
		res -= it.XLog2(s1+s2) - c.slog[k] - n.slog[j]
		shared++
		prop = prop && s1*n.p == s2*c.p
	}
	return settle(res, c, n, shared, prop)
}
