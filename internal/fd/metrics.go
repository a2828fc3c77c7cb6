package fd

import "structmine/internal/obs"

// FD-mining metrics, registered on the process-wide registry and served
// by structmined's GET /v1/metrics. Products are counted inside the two
// product kernels themselves (one atomic add each), so the counter
// covers level-wise generation, the serial reference, and approximate
// mining alike; levels count lattice levels a TANE run actually
// processed (pruning makes this data-dependent, which is exactly what
// makes it worth watching).
var (
	taneLevels = obs.Default.Counter("structmine_tane_levels",
		"Lattice levels processed across TANE runs.")
	taneProducts = obs.Default.Counter("structmine_tane_products_total",
		"Stripped-partition products computed (TANE generation, serial reference, and approximate mining).")
)
