package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/outbox"
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
		Clock: clk, Channels: sinkChannels(sink.Deliver), WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		WALSegmentBytes:    256, // force a rotation every couple of records
		WALCheckpointEvery: -1,  // deterministic: replay every segment
		Fault:              crashAt(FaultBeforeMark, crash),
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
	cfg.Channels = sinkChannels(sink.Deliver)
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
		Clock: clk, Channels: sinkChannels(sink.Deliver), WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		WALSegmentBytes:    256,
		WALCheckpointEvery: -1, // checkpoints are forced explicitly below
		Fault:              crashAt(FaultBeforeMark, crash),
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
	if err := os.WriteFile(walPath+".ckpt.00000002", []byte("CKPT 5 2 99 1 99 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	crash.Set(false, clk.Now())
	sink.hold = nil
	cfg.Channels = sinkChannels(sink.Deliver)
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

// activeSegment returns the journal's highest-numbered segment
// (zero-padded sequence numbers sort lexically).
func activeSegment(t *testing.T, walPath string) string {
	t.Helper()
	matches, err := filepath.Glob(walPath + ".*.seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatalf("no segments for %s", walPath)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// frameEnds walks one binary segment by its length prefixes and returns
// the end offset of every complete frame (the preallocated zero tail
// parses as a zero length and stops the walk, exactly like recovery).
func frameEnds(t *testing.T, path string) (ends []int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const magicLen, minLen = 8, 5
	off := magicLen
	for off+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < minLen || off+4+n > len(data) {
			break
		}
		off += 4 + n
		ends = append(ends, int64(off))
	}
	return ends
}

// TestHubCrashTearsOneLaneWhileOthersCommit (the name predates the hub's
// single journal) simulates the machine dying while the journal's final
// batch was still being written: an earlier burst is fully committed,
// the final burst's write ends mid-frame. A burst is one frame, so
// recovery must replay the committed burst whole and nothing of the
// final one — every acknowledged alert, whole bursts only — count no
// corruption, and dedup a re-submission of both bursts down to exactly
// the torn burst.
func TestHubCrashTearsOneLaneWhileOthersCommit(t *testing.T) {
	const users, perUser = 8, 4
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	crash := faults.NewFlag("crash-after-batch-fsync")
	journal := &faults.Journal{}
	// Deliveries park at the gate, so the journal holds RECV frames only.
	hold := make(chan struct{})
	defer close(hold)
	cfg := Config{
		Clock: clk, Channels: sinkChannels(newCountingSink(hold).Deliver), WALPath: walPath,
		Shards: 4, QueueDepth: 256,
		Fault: crashAt(FaultAfterBatchFsync, crash), Journal: journal,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var committed, final []Submission
	var keys []string
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		for i := 0; i < perUser; i++ {
			a := portalAlert(i, clk.Now())
			a.ID = fmt.Sprintf("a-%s-%d", user, i)
			keys = append(keys, user+"/"+a.DedupKey())
			if i < perUser/2 {
				committed = append(committed, Submission{User: user, Alert: a})
			} else {
				final = append(final, Submission{User: user, Alert: a})
			}
		}
	}
	mustAck := func(h *Hub, what string, burst []Submission) {
		t.Helper()
		for i, err := range h.SubmitBatch(burst) {
			if err != nil {
				t.Fatalf("%s entry %d: %v", what, i, err)
			}
		}
	}
	mustAck(h1, "committed burst", committed)
	// The kill lands after the final burst's fsync, before any enqueue:
	// every record is on disk, nothing delivered.
	crash.Set(true, clk.Now())
	mustAck(h1, "final burst", final)
	select {
	case <-h1.Stopped():
	case <-time.After(15 * time.Second):
		t.Fatal("hub did not stop after injected crash")
	}

	// Tear the final batch mid-frame, as if its write never finished
	// hitting the platter (and its senders never got their acks): all but
	// its last few bytes arrived, and none of its records survive.
	seg := activeSegment(t, walPath)
	ends := frameEnds(t, seg)
	if len(ends) != 2 {
		t.Fatalf("journal holds %d frames, want one per burst", len(ends))
	}
	survivors, torn := len(committed), len(final)
	if err := os.Truncate(seg, ends[1]-5); err != nil {
		t.Fatal(err)
	}

	crash.Set(false, clk.Now())
	sink2 := newCountingSink(nil)
	cfg.Channels = sinkChannels(sink2.Deliver)
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed"); got != int64(survivors) {
		t.Fatalf("replayed = %d, want %d (all but the torn records)", got, survivors)
	}
	st := h2.Stats()
	if st.WAL.CorruptRecords != 0 {
		t.Fatalf("clean torn tail counted as %d corrupt records", st.WAL.CorruptRecords)
	}
	if st.WAL.Total != int64(survivors) {
		t.Fatalf("journal recovered %d records, want %d", st.WAL.Total, survivors)
	}
	// Re-submitting both bursts re-admits exactly the torn records; the
	// rest dedup against their replayed RECV entries.
	mustAck(h2, "re-submitted committed burst", committed)
	mustAck(h2, "re-submitted final burst", final)
	if got := h2.Counters().Get("duplicates"); got != int64(survivors) {
		t.Fatalf("duplicates = %d, want %d", got, survivors)
	}
	if got := h2.Counters().Get("received"); got != int64(torn) {
		t.Fatalf("received = %d, want %d (the torn records, re-admitted)", got, torn)
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

// TestHubRefusesOldLaneDirectory: every lane directory a hub ever wrote
// has a SIMBAW1 base segment beside its "<WALPath>.laneNN" files, so the
// journal's format check refuses it — New fails with plog.ErrFormat and
// every file stays byte-identical, the lane files' owed records
// included.
func TestHubRefusesOldLaneDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "hub.wal")
	for name, content := range map[string]string{
		"hub.wal.00000001.seg":        "SIMBAW1\n\x16\x00\x00\x00Rxxxxxxxx\x01\x00\x00\x00kxxxx",
		"hub.wal.lane01.00000001.seg": "SIMBAW1\n\x16\x00\x00\x00Rxxxxxxxx\x01\x00\x00\x00owed",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirFiles(t, dir)
	_, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, OutboxPath: filepath.Join(dir, "hub.outbox"),
		Channels: sinkChannels(newCountingSink(nil).Deliver),
	})
	if !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on an old lane directory = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused New changed the directory: %q -> %q", before, after)
	}
}

// TestHubRefusesTextPayloadDirectory: a SIMBAW2 WAL and outbox journal
// an older build wrote hold alerts as wire text. Replaying one through
// the binary decoder would tombstone an acked alert as unparsable, so
// New and outbox.Open both refuse the directory with plog.ErrFormat and
// leave every file byte-identical.
func TestHubRefusesTextPayloadDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath, outboxPath := filepath.Join(dir, "hub.wal"), filepath.Join(dir, "hub.outbox")
	a := portalAlert(1, time.Unix(985597200, 0))
	wire, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	for path, rec := range map[string]plog.Record{
		walPath:    {Key: "user-0" + keySep + a.DedupKey(), Payload: wire},
		outboxPath: {Key: "user-0" + keySep + a.DedupKey() + keySep + "0", Payload: []byte("SIMBA-OUTBOX/1\nUSER: user-0\nALERT:\n" + string(wire))},
	} {
		l, err := plog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.LogReceived(rec.Key, rec.Payload, time.Now()); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The frames are unchanged since SIMBAW2; only the version differs.
	for name, data := range dirFiles(t, dir) {
		old := strings.Replace(strings.Replace(data, "SIMBAW4\n", "SIMBAW2\n", 1), "CKPT 5 ", "CKPT 3 ", 1)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirFiles(t, dir)
	if _, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, OutboxPath: outboxPath,
		Channels: sinkChannels(newCountingSink(nil).Deliver),
	}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on a SIMBAW2 directory = %v; want plog.ErrFormat", err)
	}
	if _, err := outbox.Open(outbox.Options{Clock: clock.NewReal(), Path: outboxPath}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("outbox.Open on a SIMBAW2 journal = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused opens changed the directory: %q -> %q", before, after)
	}
}

// TestHubRefusesSeparateOutboxDirectory: a SIMBAW3 hub directory keeps
// its pending envelopes in a second journal at OutboxPath, which this
// build never opens; replaying its WAL alone would drop them silently.
// New refuses the directory with plog.ErrFormat, and every file — the
// outbox journal's owed envelope included — stays byte-identical.
func TestHubRefusesSeparateOutboxDirectory(t *testing.T) {
	dir := t.TempDir()
	walPath, outboxPath := filepath.Join(dir, "hub.wal"), filepath.Join(dir, "hub.outbox")
	a := portalAlert(1, time.Unix(985597200, 0))
	rec, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("user-1"+keySep+a.DedupKey(), rec, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ob, err := outbox.Open(outbox.Options{Clock: clock.NewReal(), Path: outboxPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Put(outbox.Entry{User: "user-0", Category: "Investment", Alert: a}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range dirFiles(t, dir) {
		old := strings.Replace(strings.Replace(data, "SIMBAW4\n", "SIMBAW3\n", 1), "CKPT 5 ", "CKPT 4 ", 1)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirFiles(t, dir)
	if _, err := New(Config{
		Clock: clock.NewReal(), WALPath: walPath, OutboxPath: outboxPath,
		Channels: sinkChannels(newCountingSink(nil).Deliver),
	}); !errors.Is(err, plog.ErrFormat) {
		t.Fatalf("New on a SIMBAW3 directory = %v; want plog.ErrFormat", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused New changed the directory: %q -> %q", before, after)
	}
}

// dirFiles maps every file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
