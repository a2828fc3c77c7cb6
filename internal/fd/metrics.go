package fd

import "structmine/internal/obs"

// FD-mining metrics, registered on the process-wide registry and served
// by structmined's GET /v1/metrics. Products are counted inside the two
// kernels that compute a partition (refine and the serial reference's
// productSerial, one atomic add each), so the counter covers TANE's
// level-wise generation, the reference run, approximate mining and the
// attribute-set group-by alike; product elements count what refine
// walked (tuples, or atoms for TANE's nodes on the atom space), and
// shared counts the lattice nodes that inherited a parent's partition
// instead — together they say why products got fewer or cheaper. Levels count lattice levels a TANE run actually
// processed (pruning makes this data-dependent, which is exactly what
// makes it worth watching). The g3 counters say how the approximate
// miner settled its (X, a) candidates: walked, rejected by the e(X)
// bound without a walk, or walked only until the removed-tuple count
// reached the ε budget; they are added once per lattice level.
var (
	taneLevels = obs.Default.Counter("structmine_tane_levels",
		"Lattice levels processed across TANE runs.")
	taneProducts = obs.Default.Counter("structmine_tane_products_total",
		"Stripped partitions actually computed: one-attribute refinements in TANE, approximate mining and attribute-set group-bys, and the serial reference's products. Nodes that share a parent's partition and g3 evaluations are not counted.")
	taneProductElems = obs.Default.Counter("structmine_tane_product_elements_total",
		"Elements the one-attribute refinements walked: tuples, or atoms (the distinct rows off the most distinct attribute) for TANE lattice nodes on the atom space. The serial reference's products are not counted.")
	taneShared = obs.Default.Counter("structmine_tane_shared_partitions_total",
		"TANE lattice nodes that inherited a parent's partition because an already-emitted FD implies the two are equal.")
	g3Walks = obs.Default.Counter("structmine_g3_walks_total",
		"Approximate-FD candidates X → a whose g3 was counted by a walk of Π_X (complete or cut at the ε budget).")
	g3Bounded = obs.Default.Counter("structmine_g3_bounded_total",
		"Approximate-FD candidates rejected without a walk because e(X) − e(X∖b∪a) already reaches the ε budget.")
	g3Cut = obs.Default.Counter("structmine_g3_cut_total",
		"Approximate-FD g3 walks stopped because the removed-tuple count reached the ε budget.")
)
