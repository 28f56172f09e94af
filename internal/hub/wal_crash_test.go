package hub

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/faults"
	"simba/internal/plog"
)

// TestHubCrashAcrossWALRotation crashes the hub while its WAL is
// rotating segments: WALSegmentBytes is tiny, so the workload spans
// several segments when the kill lands. The next incarnation must
// replay the multi-segment tail without losing a single logged alert.
func TestHubCrashAcrossWALRotation(t *testing.T) {
	const users, perUser = 4, 5
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("hub-crash-before-mark")
	hold := make(chan struct{})
	sink := newCountingSink(hold)

	cfg := Config{
		Clock: clk, Sink: sink, WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		WALSegmentBytes:    256, // force a rotation every couple of records
		WALCheckpointEvery: -1,  // deterministic: replay every segment
		CrashBeforeMark:    crash,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < users*perUser; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	if segs := h1.Stats().WAL.Segments; segs < 3 {
		t.Fatalf("workload only spans %d segments; rotation not exercised", segs)
	}
	sink.waitArrivals(t, users)
	crash.Set(true, clk.Now())
	close(hold)
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not die after fault injection")
	}
	sink.waitTotal(t, users)

	// Restart on the same multi-segment WAL.
	crash.Set(false, clk.Now())
	sink.hold = nil
	cfg.Sink = sink
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if replayed := h2.Stats().WAL.SegmentsReplayed; replayed < 3 {
		t.Fatalf("recovery replayed %d segments, expected the full multi-segment tail", replayed)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	// No DONE record landed before the crash, so everything replays; the
	// parked heads are the documented dedup-contract duplicates.
	if got := h2.Counters().Get("replayed"); got != users*perUser {
		t.Fatalf("replayed = %d, want %d", got, users*perUser)
	}
	for i, uk := range keys {
		want := 1
		if i < users {
			want = 2
		}
		user, key, _ := cut(uk)
		if got := sink.count(user, key); got != want {
			t.Fatalf("alert %d (%s) delivered %d times, want %d", i, uk, got, want)
		}
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed WAL entries after recovery", len(un))
	}
	if l.Len() != users*perUser {
		t.Fatalf("WAL holds %d records, want %d", l.Len(), users*perUser)
	}
}

// TestHubCrashDuringWALCheckpoint simulates dying mid-checkpoint: after
// a durable generation-1 checkpoint, the hub crashes with a torn
// generation-2 checkpoint and a half-written tmp file on disk (the
// compactor's crash window — its covered segments are deleted only
// after the checkpoint is durable, so they all still exist). Recovery
// must discard the torn artifacts, fall back to generation 1, and
// replay the full segment tail: no unprocessed alert may be lost.
func TestHubCrashDuringWALCheckpoint(t *testing.T) {
	const users, phase1, phase2 = 2, 8, 4
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("hub-crash-before-mark")
	sink := newCountingSink(nil)

	cfg := Config{
		Clock: clk, Sink: sink, WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		WALSegmentBytes:    256,
		WALCheckpointEvery: -1, // checkpoints are forced explicitly below
		CrashBeforeMark:    crash,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	// Phase 1 flows through and is checkpointed (generation 1).
	var keys []string
	for i := 0; i < phase1; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	sink.waitTotal(t, phase1)
	if err := h1.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if gen := h1.Stats().WAL.CheckpointGen; gen != 1 {
		t.Fatalf("checkpoint generation = %d, want 1", gen)
	}
	// Phase 2 is parked inside the delivery window when the crash fires.
	// Phase 1's arrival signals are stale by now — drain them so
	// waitArrivals below waits for phase 2's parked deliveries, not
	// buffered history.
	sink.drainArrivals()
	hold := make(chan struct{})
	sink.hold = hold
	for i := phase1; i < phase1+phase2; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	sink.waitArrivals(t, users)
	crash.Set(true, clk.Now())
	close(hold)
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not die after fault injection")
	}
	sink.waitTotal(t, phase1+users)

	// Crash artifacts of a torn generation-2 checkpoint write.
	if err := os.WriteFile(walPath+".ckpt.tmp", []byte("CKPT 1 2 9"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath+".ckpt.00000002", []byte("CKPT 1 2 99 1 99 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	crash.Set(false, clk.Now())
	sink.hold = nil
	cfg.Sink = sink
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	wst := h2.Stats().WAL
	if wst.CheckpointGen != 1 {
		t.Fatalf("recovery used checkpoint generation %d, want fallback to 1", wst.CheckpointGen)
	}
	if wst.CorruptRecords == 0 {
		t.Fatal("torn checkpoint not counted as corruption")
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	// Every phase-2 alert was unprocessed at the crash and must replay;
	// phase-1 DONEs may or may not have been flushed (they are staged
	// asynchronously), so replays of those are legal duplicates — but
	// nothing may be lost.
	if got := h2.Counters().Get("replayed"); got < phase2 {
		t.Fatalf("replayed = %d, want >= %d", got, phase2)
	}
	for i, uk := range keys {
		user, key, _ := cut(uk)
		if got := sink.count(user, key); got < 1 {
			t.Fatalf("alert %d (%s) lost across checkpoint crash (delivered %d times)", i, uk, got)
		}
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed WAL entries after recovery", len(un))
	}
	if l.Len() != phase1+phase2 {
		t.Fatalf("all-time WAL total = %d, want %d", l.Len(), phase1+phase2)
	}
}

// laneActiveSegment returns the highest-numbered segment of one lane's
// journal (zero-padded sequence numbers sort lexically).
func laneActiveSegment(t *testing.T, lanePath string) string {
	t.Helper()
	all, err := filepath.Glob(lanePath + ".*.seg")
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0's base-path glob also matches the other lanes' segments
	// (hub.wal.lane03.00000001.seg); keep only this lane's own files.
	var matches []string
	for _, m := range all {
		if !strings.HasPrefix(m, lanePath+".lane") {
			matches = append(matches, m)
		}
	}
	if len(matches) == 0 {
		t.Fatalf("no segments for lane %s", lanePath)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// laneFrames walks one binary segment by its length prefixes and
// returns how many complete frames it holds and where valid data ends
// (the preallocated zero tail parses as a zero length and stops the
// walk, exactly like recovery).
func laneFrames(t *testing.T, path string) (frames int, validEnd int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const magicLen, overhead = 8, 17
	off := magicLen
	for off+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < overhead || off+4+n > len(data) {
			break
		}
		off += 4 + n
		frames++
	}
	return frames, int64(off)
}

// TestHubCrashTearsOneLaneWhileOthersCommit simulates the machine
// dying while one WAL lane's fsync was still in flight: the other
// lanes' batches are fully committed, the torn lane ends mid-frame.
// Recovery must replay every record from the intact lanes plus the
// torn lane's valid prefix, isolate the loss to that one lane, and
// dedup a re-submission of the burst down to exactly the torn record.
func TestHubCrashTearsOneLaneWhileOthersCommit(t *testing.T) {
	const users, perUser = 8, 4
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("crash-after-batch-fsync")
	journal := &faults.Journal{}
	sink1 := newCountingSink(nil)
	cfg := Config{
		Clock: clk, Sink: sink1, WALPath: walPath,
		Shards: 4, WALLanes: 4, QueueDepth: 256,
		CrashAfterBatchFsync: crash, Journal: journal,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var burst []Submission
	var keys []string
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		for i := 0; i < perUser; i++ {
			a := portalAlert(i, clk.Now())
			a.ID = fmt.Sprintf("a-%s-%d", user, i)
			burst = append(burst, Submission{User: user, Alert: a})
			keys = append(keys, user+"/"+a.DedupKey())
		}
	}
	// The kill lands after all four lanes fsynced, before any enqueue:
	// every record is durable somewhere on disk, nothing delivered.
	crash.Set(true, clk.Now())
	for i, err := range h1.SubmitBatch(burst) {
		if err != nil {
			t.Fatalf("burst entry %d: %v", i, err)
		}
	}
	select {
	case <-h1.Stopped():
	case <-time.After(15 * time.Second):
		t.Fatal("hub did not stop after injected crash")
	}

	// The burst spread across all four lanes; now tear one lane's tail
	// mid-frame, as if that lane's last write never finished hitting
	// the platter.
	perLane := make([]int, 4)
	total := 0
	for lane := range perLane {
		perLane[lane], _ = laneFrames(t, laneActiveSegment(t, plog.LanePath(walPath, lane)))
		total += perLane[lane]
	}
	if total != len(burst) {
		t.Fatalf("lanes hold %d records, want %d", total, len(burst))
	}
	torn := -1
	for lane, n := range perLane {
		if n >= 2 {
			torn = lane
			break
		}
	}
	if torn < 0 {
		t.Fatal("no lane holds >= 2 records; user hashing changed?")
	}
	seg := laneActiveSegment(t, plog.LanePath(walPath, torn))
	_, validEnd := laneFrames(t, seg)
	if err := os.Truncate(seg, validEnd-5); err != nil {
		t.Fatal(err)
	}

	crash.Set(false, clk.Now())
	sink2 := newCountingSink(nil)
	cfg.Sink = sink2
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed"); got != int64(len(burst)-1) {
		t.Fatalf("replayed = %d, want %d (all but the torn record)", got, len(burst)-1)
	}
	st := h2.Stats()
	if st.WAL.CorruptRecords != 0 {
		t.Fatalf("clean torn tail counted as %d corrupt records", st.WAL.CorruptRecords)
	}
	if len(st.WALPerLane) != 4 {
		t.Fatalf("per-lane stats cover %d lanes, want 4", len(st.WALPerLane))
	}
	for lane, ls := range st.WALPerLane {
		want := perLane[lane]
		if lane == torn {
			want--
		}
		if ls.Total != int64(want) {
			t.Fatalf("lane %d recovered %d records, want %d (loss not isolated)", lane, ls.Total, want)
		}
	}
	// Re-submitting the burst re-admits exactly the torn record; the
	// rest dedup against their replayed RECV entries.
	for i, err := range h2.SubmitBatch(burst) {
		if err != nil {
			t.Fatalf("re-submit entry %d: %v", i, err)
		}
	}
	if got := h2.Counters().Get("duplicates"); got != int64(len(burst)-1) {
		t.Fatalf("duplicates = %d, want %d", got, len(burst)-1)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, uk := range keys {
		user, key, _ := cut(uk)
		if got := sink2.count(user, key); got != 1 {
			t.Fatalf("alert %d (%s) delivered %d times, want exactly 1", i, uk, got)
		}
	}
}

// TestHubEightLaneJournalReopensAtDefault is the upgrade path of the
// WALLanes default moving from one lane per shard to one: a hub that
// wrote eight lanes dies owing a backlog, and a hub with the zero-value
// config opens the same directory. Every lane must be discovered and
// replayed, every owed alert delivered exactly once in per-user order,
// each DONE retired on the lane holding its RECV, and new traffic
// staged on lane 0 alone.
func TestHubEightLaneJournalReopensAtDefault(t *testing.T) {
	const users, perUser, lanes = 16, 4, 8
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	hold := make(chan struct{})
	h1, err := New(Config{
		Clock: clk, Sink: newCountingSink(hold), WALPath: walPath,
		Shards: lanes, WALLanes: lanes,
	})
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var burst []Submission
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		for i := 0; i < perUser; i++ {
			a := portalAlert(i, clk.Now())
			a.ID = fmt.Sprintf("a-%s-%d", user, i)
			burst = append(burst, Submission{User: user, Alert: a})
		}
	}
	for i, err := range h1.SubmitBatch(burst) {
		if err != nil {
			t.Fatalf("burst entry %d: %v", i, err)
		}
	}
	// Acked, and every delivery parked at the gate: the whole burst is
	// owed when the hub dies.
	wrote := h1.Stats().WALPerLane
	touched := 0
	for _, ls := range wrote {
		if ls.Total > 0 {
			touched++
		}
	}
	if len(wrote) != lanes || touched < 2 {
		t.Fatalf("burst landed on %d of %d lanes; the upgrade is not exercised", touched, len(wrote))
	}
	h1.Kill()
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not stop after Kill")
	}
	close(hold)

	sink := newOrderSink(dist.NewRNG(41), DefaultShards, 0)
	h2, err := New(Config{Clock: clk, Sink: sink, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h2.WALLanes(); got != lanes {
		t.Fatalf("reopen discovered %d lanes, want %d", got, lanes)
	}
	if got := h2.Counters().Get("replayed"); got != int64(len(burst)) {
		t.Fatalf("replayed = %d, want %d", got, len(burst))
	}
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		a := portalAlert(perUser, clk.Now())
		a.ID = fmt.Sprintf("a-%s-%d", user, perUser)
		if err := h2.Submit(user, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		got := sink.sequence(user)
		if len(got) != perUser+1 {
			t.Fatalf("%s delivered %d alerts, want exactly %d: %v", user, len(got), perUser+1, got)
		}
		for i, id := range got {
			if want := fmt.Sprintf("a-%s-%d", user, i); id != want {
				t.Fatalf("%s delivery %d = %s, want %s (per-user order lost)", user, i, id, want)
			}
		}
	}
	set, err := plog.OpenLanes(walPath, 1, plog.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for lane, ls := range set.PerLaneStats() {
		// A DONE staged on any lane but its RECV's would have failed with
		// ErrUnknownKey and left the record unprocessed here.
		if ls.Unprocessed != 0 {
			t.Fatalf("lane %d still owes %d records after replay + drain", lane, ls.Unprocessed)
		}
		want := wrote[lane].Total
		if lane == 0 {
			want += users
		}
		if ls.Total != want {
			t.Fatalf("lane %d holds %d alerts all-time, want %d (new traffic belongs on lane 0 only)", lane, ls.Total, want)
		}
	}
}
