package wal

import (
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"
)

// MemVFS is an in-memory VFS that models the durability boundary explicitly:
// every file tracks both its written length and its synced length, and
// Crash() rolls every file back to what had been synced — exactly the state
// a machine reboot leaves behind. Recovery tests write through a MemVFS,
// crash it, and re-open the WAL against the survivor bytes.
type MemVFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool

	// syncs counts File.Sync calls across all files — fsync-policy tests
	// assert on it.
	syncs int
}

type memFile struct {
	fs     *MemVFS
	name   string
	data   []byte
	synced int // bytes guaranteed to survive Crash
	closed bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemVFS {
	return &MemVFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// Crash simulates a machine crash: every file is truncated back to its last
// synced length. Unsynced bytes — and files created but never synced — are
// lost wholesale. (Real filesystems may keep more than this; keeping only
// the synced prefix is the adversarial model recovery must survive.)
func (m *MemVFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		if f.synced == 0 {
			delete(m.files, name)
			continue
		}
		f.data = f.data[:f.synced]
		f.closed = true
	}
}

func (m *MemVFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

func (m *MemVFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		// Mirror os.ReadDir on a missing directory.
		return nil, fs.ErrNotExist
	}
	prefix := dir + "/"
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) && !strings.Contains(name[len(prefix):], "/") {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemVFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

func (m *MemVFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Preallocate generous capacity so steady-state appends never grow the
	// slice — keeps the WAL append path's zero-allocation guarantee intact
	// when benchmarked over a MemVFS.
	f := &memFile{fs: m, name: name, data: make([]byte, 0, 1<<20)}
	m.files[name] = f
	return f, nil
}

func (m *MemVFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fs.ErrNotExist
	}
	delete(m.files, name)
	return nil
}

func (m *MemVFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fs.ErrNotExist
	}
	delete(m.files, oldname)
	f.name = newname
	m.files[newname] = f
	return nil
}

func (m *MemVFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fs.ErrNotExist
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("wal: truncate %q to %d (size %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("wal: write to closed file %q", f.name)
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fmt.Errorf("wal: sync closed file %q", f.name)
	}
	f.synced = len(f.data)
	f.fs.syncs++
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
