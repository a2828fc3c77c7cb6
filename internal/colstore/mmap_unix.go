//go:build (linux || darwin) && !colstore_readat

package colstore

import (
	"fmt"
	"os"
	"syscall"
)

// mmapMapping serves reads as zero-copy slices of a shared read-only
// mapping; callers must finish with them before close.
type mmapMapping struct {
	data []byte
}

func openMapping(path string) (mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		// A zero-byte mapping is invalid; Table rejects the file as
		// shorter than the envelope, so hand it an empty view.
		return &mmapMapping{}, nil
	}
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("colstore: %s: %d bytes exceeds the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("colstore: mmap %s: %w", path, err)
	}
	// Column scans walk the stripes front to back, so ask the kernel for
	// aggressive sequential readahead. Purely advisory — a refusal (some
	// filesystems, locked-down sandboxes, darwin) costs nothing but the
	// default readahead window.
	adviseSequential(data)
	bytesMapped.Add(int64(size))
	return &mmapMapping{data: data}, nil
}

func (m *mmapMapping) size() int64 { return int64(len(m.data)) }

func (m *mmapMapping) readAt(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > int64(len(m.data)) {
		return nil, fmt.Errorf("%w: read [%d,%d) outside %d mapped bytes", ErrCorrupt, off, off+int64(n), len(m.data))
	}
	return m.data[off : off+int64(n) : off+int64(n)], nil
}

// release drops the whole OS pages inside [off, off+n) from the resident
// set (they stay in the page cache: a re-read is a minor fault). Partial
// pages at either end are a neighbouring stripe's too and are left alone.
func (m *mmapMapping) release(off int64, n int) {
	page := int64(os.Getpagesize())
	lo, hi := (off+page-1)/page*page, (off+int64(n))/page*page
	if lo < hi {
		adviseDontNeed(m.data[lo:hi]) // advisory
	}
}

func (m *mmapMapping) close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	bytesMapped.Add(-int64(len(data)))
	return syscall.Munmap(data)
}
