package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the writable handle the WAL appends to. Sync must not return
// until previously written bytes are durable (fsync semantics).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem seam under the WAL. Production uses OS();
// tests inject a FaultFS to fail, short-write or error any chosen
// write or sync, which is how the crash-matrix and degraded-mode tests
// drive the failure paths deterministically. Every method takes full
// paths (the WAL joins its directory itself).
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error
	// Truncate cuts name to size bytes — boot-time torn-tail repair.
	Truncate(name string, size int64) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func join(dir, name string) string                  { return filepath.Join(dir, name) }

// ErrInjected is the root of every failure a FaultFS injects, so tests
// can assert the degraded path tripped on the injection and not on some
// accidental real error.
var ErrInjected = fmt.Errorf("persist: injected fault")

// FaultFS wraps an FS and injects failures: the Nth write (1-based,
// counted across all files it created) fails — optionally persisting
// only a prefix of the buffer first, a short write, the torn-tail shape
// a power cut leaves — and likewise for the Nth sync. Once a
// fault fires, every later write and sync on files from this FS fails
// too: a dead disk does not come back. Reads are never disturbed, so a
// store can replay from a directory whose writer was killed mid-record.
type FaultFS struct {
	Inner FS
	// FailWriteAt fails the Nth Write call; 0 disables.
	FailWriteAt int
	// ShortWrite, when a write fails, persists the first half of the
	// buffer before reporting the error (a torn write).
	ShortWrite bool
	// ShortWriteBytes, when positive, makes a ShortWrite tear persist
	// this many bytes instead of half (at most the buffer length − 1):
	// sweeping it over WriteSizes tears a large buffered write at any
	// offset inside it.
	ShortWriteBytes int
	// FailSyncAt fails the Nth Sync call; 0 disables.
	FailSyncAt int

	mu     sync.Mutex
	writes int
	sizes  []int
	syncs  int
	dead   bool
}

// Writes reports how many Write calls the FS has seen — run a scenario
// once to count, then re-run with FailWriteAt sweeping 1..Writes().
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// WriteSizes reports the length of every Write call so far, in order.
func (f *FaultFS) WriteSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.sizes...)
}

// Syncs reports how many Sync calls the FS has seen.
func (f *FaultFS) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

func (f *FaultFS) MkdirAll(dir string) error { return f.Inner.MkdirAll(dir) }

func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Open(name string) (io.ReadCloser, error) { return f.Inner.Open(name) }
func (f *FaultFS) ReadDir(dir string) ([]string, error)    { return f.Inner.ReadDir(dir) }
func (f *FaultFS) Remove(name string) error                { return f.Inner.Remove(name) }
func (f *FaultFS) Rename(oldname, newname string) error    { return f.Inner.Rename(oldname, newname) }
func (f *FaultFS) Truncate(name string, size int64) error  { return f.Inner.Truncate(name, size) }

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	f.writes++
	f.sizes = append(f.sizes, len(p))
	fail := f.dead || (f.FailWriteAt > 0 && f.writes >= f.FailWriteAt)
	short := fail && !f.dead && f.ShortWrite
	keep := len(p) / 2
	if f.ShortWriteBytes > 0 {
		keep = min(f.ShortWriteBytes, len(p)-1)
	}
	if fail {
		f.dead = true
	}
	f.mu.Unlock()
	if !fail {
		return ff.inner.Write(p)
	}
	if short && len(p) > 1 {
		n, _ := ff.inner.Write(p[:keep])
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, n, len(p))
	}
	return 0, fmt.Errorf("%w: write failure", ErrInjected)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	f.syncs++
	fail := f.dead || (f.FailSyncAt > 0 && f.syncs >= f.FailSyncAt)
	if fail {
		f.dead = true
	}
	f.mu.Unlock()
	if !fail {
		return ff.inner.Sync()
	}
	return fmt.Errorf("%w: sync failure", ErrInjected)
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
