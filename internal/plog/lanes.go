package plog

import (
	"errors"
	"fmt"
	"sync"
)

// A LaneSet is n independent Logs side by side — each with its own
// segmented files, committer goroutine and fsync pipeline — for a caller
// that shards its keys over them (Lane) to sync in parallel instead of
// sharing one fsync. No measured host benefits: lanes on one device
// queue only split the batches a single committer would have merged, so
// the hub holds one Log. The set remains as the plog-layer measurement
// of that decision (the benchmark ladder's lanes1-vs-lanes8 rung), where
// a separate-device placement can still be tried without a hub knob.
//
// On-disk, lane 0 lives at the base path itself (so a 1-lane set is
// bit-identical to a plain Log) and lane i > 0 lives at
// "<base>.lane<NN>".
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

// OpenLanes opens (creating as needed) exactly n lanes at base,
// recovering them concurrently. All lanes share the same options. On
// any failure every opened lane is closed and the joined error
// returned.
func OpenLanes(base string, n int, opts GroupOptions) (*LaneSet, error) {
	if n < 1 {
		n = 1
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

// Lanes returns the number of open lanes.
func (s *LaneSet) Lanes() int { return len(s.lanes) }

// Lane returns lane i for direct appends; the caller owns the
// key→lane routing and must keep it stable for per-key ordering.
func (s *LaneSet) Lane(i int) *Log { return s.lanes[i] }

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
