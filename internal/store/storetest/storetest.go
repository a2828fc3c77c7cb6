// Package storetest provides a fault-injecting store.FS for tests of
// subsystems that write through the durable filesystem seam (the store
// itself uses an in-package twin; external packages such as colstore
// use this one to prove their temp→fsync→rename writes never corrupt
// durable state under short writes, failed renames, or failed syncs,
// and — with CrashAt — to enumerate a kill at every mutating call of a
// multi-step protocol).
package storetest

import (
	"errors"
	"sync"

	"structmine/internal/store"
)

// Injected error sentinels, for errors.Is assertions.
var (
	ErrInjectedWrite  = errors.New("injected write failure")
	ErrInjectedRename = errors.New("injected rename failure")
	ErrInjectedSync   = errors.New("injected sync failure")
	ErrInjectedCrash  = errors.New("injected crash")
)

// FaultFS wraps the real filesystem with programmable failures. The
// zero value is not usable; construct with NewFaultFS. Safe for
// concurrent use.
type FaultFS struct {
	store.FS

	mu sync.Mutex
	// writeBudget, when >= 0, is the number of bytes future file writes
	// may produce before they start failing (simulating a full disk or
	// a kill mid-write that left a short temp file).
	writeBudget int64
	// failRenames makes every Rename fail (simulating a crash between
	// the temp write and the rename).
	failRenames bool
	// failSync makes every file Sync fail.
	failSync bool
	// ops counts mutating calls (CreateTemp, Write, Sync, Rename,
	// Remove) since CrashAt; from the crashAt-th on, all of them fail.
	ops, crashAt int
}

// NewFaultFS returns a FaultFS over the OS filesystem with no faults
// armed.
func NewFaultFS() *FaultFS { return &FaultFS{FS: store.OS(), writeBudget: -1} }

// SetWriteBudget arms short writes: the next n bytes succeed, then
// writes land short with ErrInjectedWrite. Pass -1 to disarm.
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	f.writeBudget = n
	f.mu.Unlock()
}

// SetFailRenames makes every Rename fail with ErrInjectedRename.
func (f *FaultFS) SetFailRenames(v bool) {
	f.mu.Lock()
	f.failRenames = v
	f.mu.Unlock()
}

// SetFailSync makes every file Sync fail with ErrInjectedSync.
func (f *FaultFS) SetFailSync(v bool) {
	f.mu.Lock()
	f.failSync = v
	f.mu.Unlock()
}

// CrashAt simulates a process killed at its n-th mutating filesystem
// call from now (CreateTemp, Write, Sync, Rename and Remove, counted in
// call order): that call fails — a Write after landing half its bytes —
// and so does every one after it, error-path cleanups included, which is
// what a kill leaves on disk. n = 0 disarms. Ops reports the calls
// counted since, so a test can run a protocol once to learn how many
// crash points it has.
func (f *FaultFS) CrashAt(n int) {
	f.mu.Lock()
	f.ops, f.crashAt = 0, n
	f.mu.Unlock()
}

// Ops returns the mutating calls counted since the last CrashAt.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// crashed counts one mutating call and reports whether it must fail:
// it is the crash point itself (first) or comes after it.
func (f *FaultFS) crashed() (fail, first bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	return f.crashAt > 0 && f.ops >= f.crashAt, f.ops == f.crashAt
}

// CreateTemp wraps the created file with the fault budget.
func (f *FaultFS) CreateTemp(dir, pattern string) (store.File, error) {
	if fail, _ := f.crashed(); fail {
		return nil, ErrInjectedCrash
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// OpenAppend wraps the opened file with the fault budget.
func (f *FaultFS) OpenAppend(path string) (store.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// Remove fails past a crash point.
func (f *FaultFS) Remove(path string) error {
	if fail, _ := f.crashed(); fail {
		return ErrInjectedCrash
	}
	return f.FS.Remove(path)
}

// Rename fails when armed with SetFailRenames, or past a crash point.
func (f *FaultFS) Rename(oldPath, newPath string) error {
	if fail, _ := f.crashed(); fail {
		return ErrInjectedCrash
	}
	f.mu.Lock()
	fail := f.failRenames
	f.mu.Unlock()
	if fail {
		return ErrInjectedRename
	}
	return f.FS.Rename(oldPath, newPath)
}

type faultFile struct {
	store.File
	fs *FaultFS
}

// Write honors the FS write budget: once exhausted, writes land short —
// the bytes within budget still hit the file, the rest are lost —
// which is exactly what a crash mid-write leaves behind.
func (f *faultFile) Write(p []byte) (int, error) {
	if fail, first := f.fs.crashed(); fail {
		n := 0
		if first {
			n, _ = f.File.Write(p[:len(p)/2])
		}
		return n, ErrInjectedCrash
	}
	f.fs.mu.Lock()
	budget := f.fs.writeBudget
	if budget >= 0 {
		if int64(len(p)) > budget {
			short := p[:budget]
			f.fs.writeBudget = 0
			f.fs.mu.Unlock()
			n, _ := f.File.Write(short)
			return n, ErrInjectedWrite
		}
		f.fs.writeBudget -= int64(len(p))
	}
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if fail, _ := f.fs.crashed(); fail {
		return ErrInjectedCrash
	}
	f.fs.mu.Lock()
	fail := f.fs.failSync
	f.fs.mu.Unlock()
	if fail {
		return ErrInjectedSync
	}
	return f.File.Sync()
}
