package wal

import (
	"errors"
	"sync"
)

// ErrInjected is the error returned by FaultFS for every injected failure,
// and stickily after a simulated crash. Tests assert with errors.Is.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps another VFS and injects failures deterministically:
//
//   - CrashAfterBytes(n): after n more bytes have been written (across all
//     files), the filesystem "crashes" — the write that crosses the budget is
//     a partial write (the first bytes up to the budget still reach the inner
//     FS, modelling a torn write), and every operation afterwards fails with
//     ErrInjected. Combined with MemVFS.Crash this reproduces a power cut at
//     an exact byte offset, which is how the recovery property test visits
//     every record boundary and mid-record offset.
//   - FailNthSync(n) and FailNthCreate(n), which this package's own tests
//     arm (fault_test.go): the n-th Sync or Create call (1-based) fails.
type FaultFS struct {
	inner VFS

	mu         sync.Mutex
	crashAt    int64 // remaining write budget; <0 = unlimited
	crashed    bool
	failSync   int // countdown; fails when it reaches 0 on a Sync
	failCreate int
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner VFS) *FaultFS {
	return &FaultFS{inner: inner, crashAt: -1, failSync: -1, failCreate: -1}
}

// CrashAfterBytes arms a crash after n more written bytes. n = 0 crashes on
// the next write.
func (f *FaultFS) CrashAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
}

func (f *FaultFS) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjected
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrInjected
	}
	if f.failCreate > 0 {
		f.failCreate--
		if f.failCreate == 0 {
			f.failCreate = -1
			f.mu.Unlock()
			return nil, ErrInjected
		}
	}
	f.mu.Unlock()
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Remove(name string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return 0, ErrInjected
	}
	if f.crashAt >= 0 && int64(len(p)) > f.crashAt {
		// Torn write: the prefix within budget reaches the inner FS, then
		// the crash triggers.
		keep := int(f.crashAt)
		f.crashAt = 0
		f.crashed = true
		f.mu.Unlock()
		if keep > 0 {
			_, _ = ff.inner.Write(p[:keep])
		}
		return keep, ErrInjected
	}
	if f.crashAt >= 0 {
		f.crashAt -= int64(len(p))
	}
	f.mu.Unlock()
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrInjected
	}
	if f.failSync > 0 {
		f.failSync--
		if f.failSync == 0 {
			f.failSync = -1
			f.mu.Unlock()
			return ErrInjected
		}
	}
	f.mu.Unlock()
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	f := ff.fs
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		// Still close the inner file so resources are released, but report
		// the sticky failure.
		_ = ff.inner.Close()
		return ErrInjected
	}
	return ff.inner.Close()
}
