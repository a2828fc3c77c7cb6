//go:build (!linux && !darwin) || colstore_readat

package colstore

import (
	"fmt"
	"os"
)

// fileMapping is the portability fallback behind the colstore_readat
// build tag (and any GOOS without the mmap path): plain pread into a
// fresh buffer of exactly the range asked for. Slower and
// allocation-heavy, but it shares every validation path with the mmap
// implementation, so the tests of the packages that open .col files
// (internal/colstore, internal/server, internal/task), run under the
// tag in CI and scripts/check.sh, cover both.
type fileMapping struct {
	f *os.File
	n int64
}

func openMapping(path string) (mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileMapping{f: f, n: st.Size()}, nil
}

func (m *fileMapping) size() int64 { return m.n }

func (m *fileMapping) readAt(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > m.n {
		return nil, fmt.Errorf("%w: read [%d,%d) outside %d file bytes", ErrCorrupt, off, off+int64(n), m.n)
	}
	buf := make([]byte, n)
	if _, err := m.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (m *fileMapping) release(int64, int) {} // readAt's buffers are the caller's

func (m *fileMapping) close() error {
	if m.f == nil {
		return nil
	}
	f := m.f
	m.f = nil
	return f.Close()
}
