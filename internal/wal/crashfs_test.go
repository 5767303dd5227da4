package wal

import "fmt"

// The crash-point harness's half of MemFS: crash-state materialization,
// injected failures and direct file reads. MemFS itself (in memfs.go)
// only journals.

// Tear selects how much of the unsynced (buffered) tail of each file
// survives a simulated crash. Real disks can persist any prefix of the
// bytes written since the last fsync; the harness checks the three
// boundary cases, which cover every replay decision the reader can face:
// no tail, a mid-record tail, and a complete-but-unacknowledged tail.
type Tear int

const (
	// TearDrop loses every unsynced byte.
	TearDrop Tear = iota
	// TearHalf keeps the first half of each file's unsynced tail —
	// tearing the final record mid-frame.
	TearHalf
	// TearKeep keeps every unsynced byte (written fully, never fsynced,
	// but the kernel flushed it anyway).
	TearKeep
)

// Tears lists every tear mode, for harness loops.
var Tears = []Tear{TearDrop, TearHalf, TearKeep}

func (t Tear) String() string {
	switch t {
	case TearDrop:
		return "drop"
	case TearHalf:
		return "half"
	case TearKeep:
		return "keep"
	}
	return fmt.Sprintf("Tear(%d)", int(t))
}

// NumOps returns how many mutating operations have been journaled.
func (m *MemFS) NumOps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ops)
}

// FailAfter arranges for every mutating operation after the next n to
// return ErrInjected (n = 0 fails the very next one). It models a disk
// going bad mid-run, for exercising the store's error paths.
func (m *MemFS) FailAfter(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAt = len(m.ops) + n + 1
}

// CrashStateAt materializes the disk as it would look if the process
// died immediately after the first n journaled operations: the replayed
// syncs' bytes are durable, each file's still-unsynced tail survives per
// the tear mode, and metadata operations (create, rename, remove) hold
// as soon as they were journaled. The result is a fresh, fully-durable
// MemFS with an empty journal — exactly what a restarted Store opens —
// and is itself crashable, so a crash during recovery composes:
// CrashStateAt on the result replays the second process's ops on top of
// the first crash's disk. CrashStateAt(NumOps(), TearKeep) is a plain
// deep copy.
func (m *MemFS) CrashStateAt(n int, tear Tear) *MemFS {
	m.mu.Lock()
	ops := m.ops[:n]
	files := make(map[string]*memFile)
	for name, content := range m.base {
		files[name] = &memFile{durable: append([]byte(nil), content...)}
	}
	for _, op := range ops {
		switch op.kind {
		case opCreate:
			files[op.name] = &memFile{}
		case opWrite:
			if f, ok := files[op.name]; ok {
				f.buffered = append(f.buffered, op.data...)
			}
		case opSync:
			if f, ok := files[op.name]; ok {
				f.durable = append(f.durable, f.buffered...)
				f.buffered = nil
			}
		case opRename:
			if f, ok := files[op.name]; ok {
				files[op.name2] = f
				delete(files, op.name)
			}
		case opRemove:
			delete(files, op.name)
		case opSyncDir:
		}
	}
	m.mu.Unlock()

	out := NewMemFS()
	for name, f := range files {
		content := append([]byte(nil), f.durable...)
		switch tear {
		case TearHalf:
			content = append(content, f.buffered[:len(f.buffered)/2]...)
		case TearKeep:
			content = append(content, f.buffered...)
		}
		out.files[name] = &memFile{durable: content}
		out.base[name] = append([]byte(nil), content...)
	}
	return out
}

// Bytes returns the current full content of one file (durable plus
// buffered) and whether it exists — a test convenience.
func (m *MemFS) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, false
	}
	content := append([]byte(nil), f.durable...)
	return append(content, f.buffered...), true
}
