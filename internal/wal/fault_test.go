package wal

// The fault seams only this package's tests use.

// FailNthSync arms the n-th (1-based) subsequent Sync call to fail.
func (f *FaultFS) FailNthSync(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync = n
}

// FailNthCreate arms the n-th (1-based) subsequent Create call to fail.
func (f *FaultFS) FailNthCreate(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failCreate = n
}

// SyncCount returns the total number of Sync calls observed.
func (m *MemVFS) SyncCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// FileSize returns the current written size of a file (for tests that
// compute crash boundaries), or -1 if it does not exist.
func (m *MemVFS) FileSize(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return -1
	}
	return int64(len(f.data))
}
