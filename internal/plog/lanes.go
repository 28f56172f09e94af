package plog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A LaneSet partitions one logical journal into n independent lanes,
// each a complete Log — its own segmented files, commit window,
// committer goroutine, and fsync pipeline — so callers that shard
// their keys (the hub routes shard i to lane i%n) sync in parallel
// instead of sharing one fsync. That trade only pays where the lanes'
// fsyncs do not share a device queue; the hub defaults to n = 1. The
// set itself only discovers and opens the lanes, merges their replay
// sets, and sums their Stats; appends and lookups go to a lane directly
// (Lane).
//
// On-disk, lane 0 lives at the base path itself (so a 1-lane set is
// bit-identical to a plain Log, and existing single-lane journals
// open as lane 0 of any set), and lane i > 0 lives at
// "<base>.lane<NN>". Opening discovers lanes left by a previous run
// with a higher lane count and recovers them too — records never
// strand when the configured count shrinks — though new appends only
// go wherever the caller routes them.
//
// The merged replay contract: Unprocessed returns all lanes' pending
// records ordered by received-at timestamp (ties broken by lane
// index). Since a key is always routed to the same lane while the
// lane count is stable, per-key — hence per-user — replay order
// matches what a single-lane journal would produce; only cross-user
// interleaving differs, which the downstream timestamp dedup already
// tolerates (the same freedom the paper's per-user ordering contract
// grants).
type LaneSet struct {
	lanes []*Log
}

// LanePath returns lane i's journal base path.
func LanePath(base string, lane int) string {
	if lane == 0 {
		return base
	}
	return fmt.Sprintf("%s.lane%02d", base, lane)
}

// scanLanes returns the highest lane index with files on disk (0 when
// only the base journal, or nothing, exists).
func scanLanes(base string) (int, error) {
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		return 0, fmt.Errorf("plog: scanning lanes of %s: %w", base, err)
	}
	prefix := filepath.Base(base) + ".lane"
	maxLane := 0
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok {
			continue
		}
		digits := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			digits = rest[:i]
		}
		if lane, err := strconv.Atoi(digits); err == nil && lane > maxLane {
			maxLane = lane
		}
	}
	return maxLane, nil
}

// OpenLanes opens (creating as needed) an n-lane journal set at base,
// recovering every lane concurrently. Lanes left behind by a previous
// run with a higher count are opened as well, so their unprocessed
// records replay; n is a minimum, not an exact width. All lanes share
// the same options. On any failure every opened lane is closed and the
// joined error returned.
func OpenLanes(base string, n int, opts GroupOptions) (*LaneSet, error) {
	if n < 1 {
		n = 1
	}
	if found, err := scanLanes(base); err != nil {
		return nil, err
	} else if found+1 > n {
		n = found + 1
	}
	lanes := make([]*Log, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lanes[i], errs[i] = OpenGroup(LanePath(base, i), opts)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, l := range lanes {
			if l != nil {
				l.Close()
			}
		}
		return nil, err
	}
	return &LaneSet{lanes: lanes}, nil
}

// Lanes returns the number of open lanes (>= the n requested at open).
func (s *LaneSet) Lanes() int { return len(s.lanes) }

// Lane returns lane i for direct appends; the caller owns the
// key→lane routing and must keep it stable for per-key ordering.
func (s *LaneSet) Lane(i int) *Log { return s.lanes[i] }

// Pending sums the lanes' live not-yet-processed record counts — the
// set's current replay backlog. Cheap enough for resource-invariant
// checks to poll, unlike Unprocessed (which copies payloads).
func (s *LaneSet) Pending() int {
	n := 0
	for _, l := range s.lanes {
		n += l.Pending()
	}
	return n
}

// LaneRecord is one unprocessed record tagged with the lane holding
// it, so the caller can retire it on the same lane after replay.
type LaneRecord struct {
	Record
	Lane int
}

// Unprocessed returns every lane's pending records merged by
// received-at timestamp (ties broken by lane index) — the restart
// replay set. See the type comment for why this preserves per-user
// order.
func (s *LaneSet) Unprocessed() []LaneRecord {
	var out []LaneRecord
	for i, l := range s.lanes {
		for _, r := range l.Unprocessed() {
			out = append(out, LaneRecord{Record: r, Lane: i})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].ReceivedAt.Before(out[b].ReceivedAt)
	})
	return out
}

// Stats returns one aggregated snapshot: counters summed across lanes,
// histograms merged, ActiveSegment/CheckpointGen reported as the
// maximum (they are per-lane sequence numbers with no meaningful sum).
func (s *LaneSet) Stats() Stats {
	var agg Stats
	for i, l := range s.lanes {
		ls := l.Stats()
		if i == 0 {
			agg = ls
			continue
		}
		agg.Total += ls.Total
		agg.Live += ls.Live
		agg.Unprocessed += ls.Unprocessed
		agg.Retired += ls.Retired
		agg.CorruptRecords += ls.CorruptRecords
		agg.Segments += ls.Segments
		agg.SegmentsCreated += ls.SegmentsCreated
		agg.SegmentsReplayed += ls.SegmentsReplayed
		agg.Checkpoints += ls.Checkpoints
		agg.CompactedBytes += ls.CompactedBytes
		agg.DiskBytes += ls.DiskBytes
		agg.Appended += ls.Appended
		agg.Syncs += ls.Syncs
		if ls.ActiveSegment > agg.ActiveSegment {
			agg.ActiveSegment = ls.ActiveSegment
		}
		if ls.CheckpointGen > agg.CheckpointGen {
			agg.CheckpointGen = ls.CheckpointGen
		}
		agg.FsyncLatency = agg.FsyncLatency.Merge(ls.FsyncLatency)
		agg.CommitBatches = agg.CommitBatches.Merge(ls.CommitBatches)
		agg.StagedBatches = agg.StagedBatches.Merge(ls.StagedBatches)
		agg.CommitWait = agg.CommitWait.Merge(ls.CommitWait)
	}
	return agg
}

// PerLaneStats snapshots each lane separately, index-aligned with the
// lane numbering (each Stats carries its own Syncs and FsyncLatency,
// so per-lane fsync behavior is visible).
func (s *LaneSet) PerLaneStats() []Stats {
	out := make([]Stats, len(s.lanes))
	for i, l := range s.lanes {
		out[i] = l.Stats()
	}
	return out
}

// each runs f on every lane concurrently (a lane's Checkpoint and
// Close both wait on its own disk) and joins the errors.
func (s *LaneSet) each(f func(*Log) error) error {
	errs := make([]error, len(s.lanes))
	var wg sync.WaitGroup
	for i, l := range s.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(l)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Checkpoint forces a checkpoint + compaction on every lane.
func (s *LaneSet) Checkpoint() error { return s.each((*Log).Checkpoint) }

// Close flushes and closes every lane.
func (s *LaneSet) Close() error { return s.each((*Log).Close) }
