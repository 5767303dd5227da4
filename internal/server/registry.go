package server

import (
	"fmt"
	"sort"
	"sync"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/shard"
)

// Registry is the server's collection of named serving entries. Each
// entry pairs a queryable OSSM index with an optional in-memory dataset
// (the mining substrate for /v1/mine); indexes are loaded once at startup
// (Grahne & Zhu's on-demand secondary-memory shape) and replaced
// wholesale by Swap when a streaming snapshot supersedes them.
//
// Every index carries a monotonically increasing version. Readers obtain
// (index, version) atomically; the bound cache keys on the version, so a
// swap implicitly invalidates every bound cached against the replaced
// index.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

type entry struct {
	index   *ossm.Index
	dataset *ossm.Dataset
	version uint64
	swaps   int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// AddIndex registers a new named index at version 1. Adding a name twice
// is an error — replacement goes through Swap so cache invalidation is
// explicit.
func (r *Registry) AddIndex(name string, ix *ossm.Index) error {
	if name == "" || ix == nil {
		return fmt.Errorf("server: AddIndex requires a name and an index")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.index != nil {
			return fmt.Errorf("server: index %q already registered (use Swap to replace it)", name)
		}
		e.index = ix
		e.version++
		return nil
	}
	r.entries[name] = &entry{index: ix, version: 1}
	return nil
}

// AddDataset attaches a dataset to the named entry (creating the entry if
// needed), enabling /v1/mine for that name.
func (r *Registry) AddDataset(name string, d *ossm.Dataset) error {
	if name == "" || d == nil {
		return fmt.Errorf("server: AddDataset requires a name and a dataset")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = &entry{}
		r.entries[name] = e
	}
	if e.dataset != nil {
		return fmt.Errorf("server: dataset %q already attached", name)
	}
	e.dataset = d
	return nil
}

// Swap replaces the named index with a new one (typically a streaming
// Appender snapshot) and bumps its version, invalidating all bounds
// cached against the old index. The entry's dataset, if any, is kept.
func (r *Registry) Swap(name string, ix *ossm.Index) error {
	if ix == nil {
		return fmt.Errorf("server: Swap requires an index")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok || e.index == nil {
		return fmt.Errorf("server: unknown index %q", name)
	}
	e.index = ix
	e.version++
	e.swaps++
	return nil
}

// Remove deletes the named entry — index, dataset and version history —
// reporting whether it existed. Startup loaders use it to release
// partially-registered entries when a later load step fails; bounds
// cached against the removed index become unreachable because lookups
// for the name now miss.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	return ok
}

// Lookup returns the named index and its current version atomically.
func (r *Registry) Lookup(name string) (ix *ossm.Index, version uint64, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, found := r.entries[name]
	if !found || e.index == nil {
		return nil, 0, false
	}
	return e.index, e.version, true
}

// Dataset returns the dataset attached to the named entry, if any.
func (r *Registry) Dataset(name string) (*ossm.Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok || e.dataset == nil {
		return nil, false
	}
	return e.dataset, true
}

// IndexInfo is one row of GET /v1/indexes: the serving-relevant shape of
// a registered entry.
type IndexInfo struct {
	Name       string `json:"name"`
	Segments   int    `json:"segments,omitempty"`
	NumItems   int    `json:"num_items,omitempty"`
	NumTx      int    `json:"num_tx,omitempty"`
	SizeBytes  int    `json:"size_bytes,omitempty"`
	Version    uint64 `json:"version"`
	Swaps      int64  `json:"swaps"`
	HasDataset bool   `json:"has_dataset"`
	HasIndex   bool   `json:"has_index"`

	// Sharded-serving topology, present only when the server runs a
	// scatter-gather fleet for this entry (Server.UseRemoteFleet).
	// Unsharded servers keep the original response shape: every field
	// below is omitted from the JSON.
	ShardCount      int          `json:"shard_count,omitempty"`
	FleetGeneration uint64       `json:"fleet_generation,omitempty"`
	Shards          []shard.Info `json:"shards,omitempty"`
}

// Info lists every entry sorted by name.
func (r *Registry) Info() []IndexInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]IndexInfo, 0, len(r.entries))
	for name, e := range r.entries {
		info := IndexInfo{
			Name:       name,
			Version:    e.version,
			Swaps:      e.swaps,
			HasDataset: e.dataset != nil,
			HasIndex:   e.index != nil,
		}
		if e.index != nil {
			info.Segments = e.index.NumSegments()
			info.NumItems = e.index.NumItems()
			info.NumTx = e.index.NumTx()
			info.SizeBytes = e.index.SizeBytes()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
