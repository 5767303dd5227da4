package server

// GET /v1/fleetz: the one-call fleet health summary an operator (or the
// loadgen's -fleetz poll mode) reads instead of correlating /v1/indexes,
// /metrics and breaker gauges by hand. It reports every fleet's shard
// roster with circuit-breaker state overlaid, the durable-ingest
// freshness ledger (sequence, promotion backlog, WAL replay debt,
// snapshot age), and the trace ring's shape.

import (
	"net/http"
	"time"

	"github.com/ossm-mining/ossm/internal/shard"
	"github.com/ossm-mining/ossm/internal/shard/remote"
)

// FleetzResponse is the GET /v1/fleetz report.
type FleetzResponse struct {
	// Status is "ok", or "degraded" when any shard is unhealthy or any
	// breaker is open — the single field a poller alerts on.
	Status   string        `json:"status"`
	UptimeNS time.Duration `json:"uptime_ns"`
	Fleets   []FleetzFleet `json:"fleets"`
	Ingest   *FleetzIngest `json:"ingest,omitempty"`
	Traces   FleetzTraces  `json:"traces"`
}

// FleetzFleet is one registry entry's scatter-gather fleet.
type FleetzFleet struct {
	Index      string        `json:"index"`
	Generation uint64        `json:"generation"`
	Shards     []FleetzShard `json:"shards"`
}

// FleetzShard is one shard's health row: the transport's own Info plus
// the coordinator-side circuit breaker position for remote shards.
type FleetzShard struct {
	shard.Info
	Breaker string `json:"breaker,omitempty"`
}

// FleetzIngest is the durable-ingest freshness ledger.
type FleetzIngest struct {
	Dataset string `json:"dataset"`
	// Seq is the last durably acknowledged record; Promoted the sequence
	// the serving index reflects; Backlog their difference.
	Seq      uint64 `json:"seq"`
	Promoted uint64 `json:"promoted"`
	Backlog  uint64 `json:"backlog"`
	NumTx    int64  `json:"num_tx"`
	// WALBytes and ReplayLagRecords measure the active WAL tail a crash
	// recovery would replay; SnapshotAgeSeconds is the time since the
	// last snapshot committed (absent before the first).
	WALBytes           int64   `json:"wal_bytes"`
	ReplayLagRecords   int     `json:"replay_lag_records"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
}

// FleetzTraces is the span ring's shape.
type FleetzTraces struct {
	Capacity int   `json:"capacity"`
	Held     int   `json:"held"`
	Total    int64 `json:"total"`
	Dropped  int64 `json:"dropped"`
}

// breakerReporter is the slice of remote.Client the health summary
// needs from a transport.
type breakerReporter interface {
	ID() int
	BreakerState() remote.BreakerState
}

func (s *Server) handleFleetz(w http.ResponseWriter, r *http.Request) {
	resp := FleetzResponse{
		Status:   "ok",
		UptimeNS: time.Since(s.start),
	}
	capn, held, total, dropped := s.obs.tracer.Stats()
	resp.Traces = FleetzTraces{Capacity: capn, Held: held, Total: total, Dropped: dropped}

	type namedEntry struct {
		name string
		fe   *fleetEntry
	}
	var entries []namedEntry
	s.fleetsMu.Lock()
	for name, fe := range s.fleets {
		entries = append(entries, namedEntry{name, fe})
	}
	s.fleetsMu.Unlock()

	for _, e := range entries {
		e.fe.mu.Lock()
		fleet := e.fe.fleet
		breakers := make(map[int]string)
		for _, t := range e.fe.transports {
			if br, ok := t.(breakerReporter); ok {
				breakers[br.ID()] = br.BreakerState().String()
			}
		}
		e.fe.mu.Unlock()
		if fleet == nil {
			continue
		}
		st := fleet.Describe()
		ff := FleetzFleet{
			Index:      e.name,
			Generation: st.Generation,
			Shards:     make([]FleetzShard, 0, len(st.Shards)),
		}
		for _, info := range st.Shards {
			row := FleetzShard{Info: info, Breaker: breakers[info.ID]}
			if info.State != "healthy" || row.Breaker == remote.BreakerOpen.String() {
				resp.Status = "degraded"
			}
			ff.Shards = append(ff.Shards, row)
		}
		resp.Fleets = append(resp.Fleets, ff)
	}
	if resp.Fleets == nil {
		resp.Fleets = []FleetzFleet{}
	}

	if ing := s.ingest.Load(); ing != nil {
		lag, snapAt := ing.store.SinceSnapshot()
		fi := &FleetzIngest{
			Dataset:          ing.name,
			Seq:              ing.store.Seq(),
			Promoted:         ing.Promoted(),
			Backlog:          ing.Backlog(),
			NumTx:            ing.store.NumTx(),
			WALBytes:         ing.store.WALBytes(),
			ReplayLagRecords: lag,
		}
		if !snapAt.IsZero() {
			fi.SnapshotAgeSeconds = time.Since(snapAt).Seconds()
		}
		resp.Ingest = fi
	}
	s.writeJSON(w, http.StatusOK, resp)
}
