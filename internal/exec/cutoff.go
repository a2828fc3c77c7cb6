package exec

// Kernel names a parallel fan-out site so the cutoff policy and the
// steal metrics can be per-kernel. The table below is calibrated per
// kernel because a "work unit" costs wildly different
// amounts across them — a full δI evaluation at an AIB pair site versus
// a handful of counting-slot operations per tuple at a TANE refinement.
type Kernel uint8

const (
	// AIBPairs: initial δI over the q(q−1)/2 candidate pair space; one
	// work unit is one δI evaluation over sparse supports (~µs).
	AIBPairs Kernel = iota
	// AIBRecompute: δI recomputation against a fresh merge; work counts
	// sparse elements touched (~5 ns each).
	AIBRecompute
	// LIMBOAssign: object→representative assignment through the inverted
	// index of the representatives' supports; work counts posting terms
	// (one shared coordinate of an object and a representative: one
	// logarithm, ~10 ns), estimated from the index's list lengths.
	LIMBOAssign
	// TANEProduct: the per-level fan-outs of internal/fd. A refinement
	// walks one stripped partition twice (count, then place), so its
	// work is 2 × the tuples of the walked side; a node that shares its
	// parent's partition costs 0 and is never queued. The g3 fan-out of
	// the approximate miner walks Π_X once per candidate and counts its
	// tuples. One unit is one tuple visit (~5–10 ns).
	TANEProduct
	// ColScan: page-stripe scans over a Columns source; work counts
	// tuples decoded (~1 ns each resident, dominated by page I/O paged).
	ColScan

	numKernels
)

// cutoffs is the minimum work (in the kernel's own units) below which a
// fan-out runs serially: spawn+join overhead for a handful of workers
// is ~10–20 µs (measured by BenchmarkFanoutOverhead in this package),
// so each entry targets ≥ 10× that in useful work. Expensive-unit
// kernels (δI evaluations) keep low thresholds; cheap-unit kernels
// (per-element passes) need far more units to amortize the same
// overhead.
var cutoffs = [numKernels]int{
	AIBPairs:     512,   // ~µs/unit → ~0.5 ms of work
	AIBRecompute: 16384, // ~5 ns/unit → ~80 µs of work
	LIMBOAssign:  8192,  // ~10 ns/unit → ~80 µs of work
	TANEProduct:  8192,  // ~5–10 ns/unit → ~40–80 µs of work
	ColScan:      16384, // ~1–10 ns/unit → ≥ ~20 µs of work (4+ stripes)
}

var kernelNames = [numKernels]string{
	AIBPairs:     "aib_pairs",
	AIBRecompute: "aib_recompute",
	LIMBOAssign:  "limbo_assign",
	TANEProduct:  "tane_product",
	ColScan:      "col_scan",
}

// Cutoff returns the kernel's serial-below threshold in work units.
func (k Kernel) Cutoff() int { return cutoffs[k] }

func (k Kernel) String() string { return kernelNames[k] }

// stealGrain is how many chunks each worker's fair share is split into
// for work-stealing handout: more chunks than workers, so a worker that
// lands a skewed chunk sheds the rest of its range to idle peers, but
// few enough that the per-chunk atomic claim stays negligible.
const stealGrain = 4
