//go:build !colstore_readat

package colstore

// The syscall package has no Madvise on darwin, so the mapping goes
// without advice there: reads see the default readahead, and released
// tail pages stay resident until the kernel reclaims them.

func adviseSequential([]byte) {}

func adviseDontNeed([]byte) {}
