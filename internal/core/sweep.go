package core

import (
	"fmt"
	"sort"
	"time"
)

// SweepPoint is one snapshot of a segmentation sweep.
type SweepPoint struct {
	Segments int
	Map      *Map
	// Elapsed is the cumulative segmentation time from the start of the
	// sweep until this snapshot was reached.
	Elapsed time.Duration
}

// SegmentSweep runs the configured algorithm once and snapshots the OSSM
// at every requested segment count. It is equivalent to calling Segment
// once per target (the merge sequences of RC and Greedy are
// prefix-nested), but shares the merging work — the natural way to
// produce the x-axes of the paper's Figure 4.
//
// Targets are deduplicated and served in descending order; targets above
// the page count snapshot the initial state. opts.TargetSegments is
// ignored (the smallest target is used). A merge that would overflow a
// uint32 cell fails with ErrCountOverflow.
func SegmentSweep(rows [][]uint32, opts Options, targets []int) ([]SweepPoint, error) {
	k, err := checkRows(rows)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: SegmentSweep needs at least one target")
	}
	want := map[int]bool{}
	minTarget := targets[0]
	for _, t := range targets {
		if t < 1 {
			return nil, fmt.Errorf("core: sweep target must be ≥ 1, got %d", t)
		}
		tt := t
		if tt > len(rows) {
			tt = len(rows)
		}
		want[tt] = true
		if tt < minTarget {
			minTarget = tt
		}
	}
	if hybrid(opts.Algorithm) && opts.MidSegments < minTarget {
		return nil, fmt.Errorf("core: MidSegments (%d) must be ≥ the smallest sweep target (%d) for %s",
			opts.MidSegments, minTarget, opts.Algorithm)
	}
	items := opts.Bubble
	if items == nil {
		items = AllItems(k)
	}

	var points []SweepPoint
	start := time.Now()
	if opts.Algorithm == AlgRandom {
		// The contiguous partition is not incremental across targets;
		// each is O(m), so build each directly.
		var ts []int
		for t := range want {
			ts = append(ts, t)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ts)))
		for _, t := range ts {
			segs := makeSegments(rows)
			if err := randomMerge(segs, t); err != nil {
				return nil, err
			}
			points = append(points, SweepPoint{Segments: t, Map: snapshotMap(segs), Elapsed: time.Since(start)})
		}
	} else {
		// The first call sees the state the sumdiff-driven phase starts
		// from and serves every target at or above it; each merge then
		// lowers the live count by one, meeting the remaining targets.
		segs := makeSegments(rows)
		snapshot := func(live int) {
			elapsed := time.Since(start)
			for t := range want {
				if t >= live {
					points = append(points, SweepPoint{Segments: t, Map: snapshotMap(segs), Elapsed: elapsed})
					delete(want, t)
				}
			}
		}
		if err := merge(segs, opts, minTarget, items, snapshot); err != nil {
			return nil, err
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Segments > points[j].Segments })
	return points, nil
}

// snapshotMap copies the live segments into a standalone Map.
func snapshotMap(segs []*segment) *Map {
	var rows [][]uint32
	for _, s := range segs {
		if s.alive {
			rows = append(rows, s.counts)
		}
	}
	m, err := NewMap(rows) // copies the cells
	if err != nil {
		panic(err) // cannot happen: at least one live segment always remains
	}
	return m
}
