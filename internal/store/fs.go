package store

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the narrow filesystem surface the store writes through. The
// production implementation is the operating system (osFS); tests
// substitute a fault-injecting shim to prove that short writes, failed
// renames, and torn files never corrupt previously durable state.
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the names of the regular files in dir, sorted.
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a new unique file in dir for an atomic
	// write-then-rename.
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// SyncDir fsyncs a directory so a completed rename survives power
	// loss. A no-op error is tolerated by callers on platforms where
	// directories cannot be opened for sync.
	SyncDir(dir string) error
}

// File is the writable handle the store needs: sequential writes, an
// explicit durability barrier, and a name for the final rename.
type File interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// osFS is the production FS backed by package os.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// TempPrefix marks in-flight atomic writes; boot sweeps ignore and
// delete anything carrying it, so a crash mid-write leaves no ghosts.
// Sibling subsystems (colstore) write through the same FS with the same
// temp→rename discipline, so one boot sweep convention covers every
// directory under the durable root.
const TempPrefix = ".tmp-"

// writeAtomic writes data to path via a unique temp file in the same
// directory: temp → (fsync) → rename → (fsync dir). A crash at any
// point leaves either the old file or the new one, never a torn mix.
func writeAtomic(fsys FS, path string, data []byte, fsync bool) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, TempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			_ = fsys.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if fsync {
		_ = fsys.SyncDir(dir) // best effort; rename already ordered the data
	}
	return nil
}
