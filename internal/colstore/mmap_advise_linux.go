//go:build !colstore_readat

package colstore

import "syscall"

// adviseSequential asks the kernel for aggressive readahead over a
// mapping that column scans walk front to back.
func adviseSequential(data []byte) { _ = syscall.Madvise(data, syscall.MADV_SEQUENTIAL) }

// adviseDontNeed drops the pages of data from the resident set; they
// stay in the page cache, so a re-read is a minor fault.
func adviseDontNeed(data []byte) { _ = syscall.Madvise(data, syscall.MADV_DONTNEED) }
