package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// ErrInjected is the failure MemFS returns from every mutating operation
// at or past its failure point (failAt) — the hook error-path tests
// match on.
var ErrInjected = errors.New("wal: injected filesystem failure")

// opKind enumerates the journaled durable operations.
type opKind int

const (
	opCreate opKind = iota
	opWrite
	opSync
	opRename
	opRemove
	opSyncDir
)

type memOp struct {
	kind        opKind
	name, name2 string
	data        []byte
}

// memFile models one file on a crashable disk: durable holds what fsync
// has promised, buffered what has been written since.
type memFile struct {
	durable  []byte
	buffered []byte
}

// MemFS is an in-memory FS that models crash-durability semantics: Write
// buffers, Sync promotes, and every mutating operation is journaled so
// the crash-point harness in this package's tests can materialize the
// exact disk state after any operation prefix. The zero value is not
// usable; call NewMemFS.
type MemFS struct {
	mu     sync.Mutex
	files  map[string]*memFile
	base   map[string][]byte // durable contents when the journal started
	ops    []memOp
	failAt int // 0 = disabled; ops at index >= failAt-1 error
}

// NewMemFS returns an empty crashable in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), base: make(map[string][]byte)}
}

// note journals one op, reporting whether injected failure tripped.
func (m *MemFS) note(op memOp) error {
	m.ops = append(m.ops, op)
	if m.failAt > 0 && len(m.ops) >= m.failAt {
		return ErrInjected
	}
	return nil
}

type memWriter struct {
	fs   *MemFS
	name string
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	f, ok := w.fs.files[w.name]
	if !ok {
		return 0, fmt.Errorf("wal: write to removed file %q", w.name)
	}
	if err := w.fs.note(memOp{kind: opWrite, name: w.name, data: append([]byte(nil), p...)}); err != nil {
		return 0, err
	}
	f.buffered = append(f.buffered, p...)
	return len(p), nil
}

func (w *memWriter) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	f, ok := w.fs.files[w.name]
	if !ok {
		return fmt.Errorf("wal: sync of removed file %q", w.name)
	}
	if err := w.fs.note(memOp{kind: opSync, name: w.name}); err != nil {
		return err
	}
	f.durable = append(f.durable, f.buffered...)
	f.buffered = nil
	return nil
}

func (w *memWriter) Read(p []byte) (int, error) { return 0, io.EOF }
func (w *memWriter) Close() error               { return nil }

type memReader struct {
	*bytes.Reader
}

func (r *memReader) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("wal: write to read-only file")
}
func (r *memReader) Sync() error  { return nil }
func (r *memReader) Close() error { return nil }

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.note(memOp{kind: opCreate, name: name}); err != nil {
		return nil, err
	}
	m.files[name] = &memFile{}
	return &memWriter{fs: m, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %q: file does not exist", name)
	}
	content := make([]byte, 0, len(f.durable)+len(f.buffered))
	content = append(content, f.durable...)
	content = append(content, f.buffered...)
	return &memReader{bytes.NewReader(content)}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("wal: rename %q: file does not exist", oldname)
	}
	if err := m.note(memOp{kind: opRename, name: oldname, name2: newname}); err != nil {
		return err
	}
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.note(memOp{kind: opRemove, name: name}); err != nil {
		return err
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.note(memOp{kind: opSyncDir})
}
