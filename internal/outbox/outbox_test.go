package outbox

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/plog"
	"simba/internal/race"
)

// key is the round-stamped journal key the entry is persisted under.
func (e *Entry) key() string { return roundKey(e.dedupKey(), e.Round) }

func testAlert(i int) *alert.Alert {
	return &alert.Alert{
		ID:       fmt.Sprintf("a-%d", i),
		Source:   "portal",
		Keywords: []string{"Investment"},
		Subject:  "quote update",
		Body:     "MSFT moved",
		Urgency:  alert.UrgencyNormal,
		Created:  time.Unix(0, int64(1000+i)),
	}
}

func testEntry(i int) Entry {
	return Entry{User: fmt.Sprintf("user-%d", i), Category: "Investment", Alert: testAlert(i), Attempts: 3}
}

// entryKey is the journal key testEntry(i) is first persisted under.
func entryKey(i int) string {
	e := testEntry(i)
	return e.key()
}

// TestEntryCodecRoundTrip: an envelope decoded under its key is the
// entry encoded — User and Round read back from the key, and the alert
// field for field, a '|' in its Source and ID and a pre-1970 Created
// included — and under another alert's key it does not decode.
func TestEntryCodecRoundTrip(t *testing.T) {
	e := testEntry(1)
	e.Round = 4
	e.Offset = 2
	e.Due = time.Unix(0, 987654321)
	e.Alert.Source, e.Alert.ID = "por|tal", "a|1"
	e.Alert.Created = time.Date(1969, 7, 20, 20, 17, 40, 0, time.UTC)
	payload, err := e.encode()
	if err != nil {
		t.Fatal(err)
	}
	dedup, round, err := splitKey(e.key())
	if err != nil {
		t.Fatal(err)
	}
	if dedup != e.dedupKey() || round != e.Round {
		t.Fatalf("splitKey(%q) = (%q, %d)", e.key(), dedup, round)
	}
	got, err := decodeEntry(dedup, round, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != e.User || got.Category != e.Category ||
		got.Attempts != e.Attempts || got.Round != e.Round || got.Offset != e.Offset ||
		!got.Due.Equal(e.Due) || !reflect.DeepEqual(got.Alert, e.Alert) {
		t.Fatalf("decoded entry %+v (alert %+v) != original %+v (alert %+v)", got, *got.Alert, e, *e.Alert)
	}
	other := testEntry(2)
	if got, err := decodeEntry(other.dedupKey(), round, payload); err == nil {
		t.Fatalf("the envelope decoded under another alert's key as %+v", got)
	}
}

// TestEntryEncodeAllocBudget: an envelope payload is one buffer, sized
// once for the header and the alert's journal record.
func TestEntryEncodeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	e := testEntry(1)
	if n := testing.AllocsPerRun(100, func() { _, _ = e.encode() }); n != 1 {
		t.Fatalf("encode allocates %.0f times, want 1", n)
	}
}

// TestLoadEntriesOwnTheirKeywords: the envelopes Load keeps never share
// keyword backing, although alert.Alert.UnmarshalRecord reuses its
// receiver's — each entry is decoded into an alert of its own.
func TestLoadEntriesOwnTheirKeywords(t *testing.T) {
	l, err := plog.Open(filepath.Join(t.TempDir(), "shared.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs []plog.Record
	for i := range 2 {
		e := testEntry(i)
		e.Alert.Keywords = []string{fmt.Sprintf("kw-%d", i)}
		payload, err := e.encode()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, plog.Record{Key: e.key(), Payload: payload})
	}
	o := New(l, Options{Clock: clock.NewReal(), Backoff: time.Hour})
	if owned := o.Load(recs); len(owned) != 2 {
		t.Fatalf("Load kept %d envelopes, want 2", len(owned))
	}
	byUser := make(map[string]*alert.Alert)
	for _, it := range o.pending {
		byUser[it.e.User] = it.e.Alert
	}
	a, b := byUser["user-0"], byUser["user-1"]
	if a == nil || b == nil || len(a.Keywords) != 1 || len(b.Keywords) != 1 {
		t.Fatalf("loaded alerts %+v and %+v, want one keyword each", a, b)
	}
	a.Keywords[0] = "written"
	if b.Keywords[0] != "kw-1" {
		t.Fatalf("writing one entry's keywords changed the other's to %q", b.Keywords[0])
	}
}

func openTestOutbox(t *testing.T, dir string, opts Options) *Outbox {
	t.Helper()
	opts.Clock = clock.NewReal()
	if opts.Path == "" {
		opts.Path = filepath.Join(dir, "test.outbox")
	}
	o, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOutboxRedeliversUntilSuccess drives one envelope through two
// failed rounds and a success, checking the counters and that the
// journal record is retired.
func TestOutboxRedeliversUntilSuccess(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir, Options{Backoff: time.Millisecond, BackoffCap: 4 * time.Millisecond})
	var calls atomic.Int64
	if err := o.Start(func(_ string, e *Entry) (int, error) {
		if calls.Add(1) < 3 {
			return 1, errors.New("still down")
		}
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "redelivery", func() bool { return o.Redelivered() == 1 })
	st := o.Stats()
	if st.Rounds != 2 || st.Pending != 0 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 2 rounds, 0 pending, 1 put", st)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// The journal must be clean: nothing to replay.
	reopened := openTestOutbox(t, dir, Options{})
	defer reopened.Close()
	if got := reopened.Stats().Loaded; got != 0 {
		t.Fatalf("reopen loaded %d envelopes, want 0", got)
	}
}

// TestOutboxSurvivesRestartWithRoundState kills the outbox after
// several failed rounds and checks the next incarnation resumes from
// the persisted round/offset state: exactly one pending envelope (the
// stale per-round records collapse onto the newest) carrying the
// accumulated round count.
func TestOutboxSurvivesRestartWithRoundState(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir, Options{Backoff: time.Millisecond, BackoffCap: time.Millisecond})
	if err := o.Start(func(_ string, e *Entry) (int, error) { return 1, errors.New("down") }); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three failed rounds", func() bool { return o.Stats().Rounds >= 3 })
	o.Kill()
	checkLedger(t, o.Stats())

	journal := &faults.Journal{}
	o2 := openTestOutbox(t, dir, Options{Backoff: time.Millisecond, Journal: journal})
	st := o2.Stats()
	if st.Loaded != 1 || st.Pending != 1 {
		t.Fatalf("reopen loaded %d / pending %d, want 1 / 1", st.Loaded, st.Pending)
	}
	if journal.Count(faults.KindReplay) == 0 {
		t.Fatal("no replay journal entries for the recovered envelope")
	}
	var got atomic.Int64
	if err := o2.Start(func(_ string, e *Entry) (int, error) {
		got.Store(int64(e.Round))
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "redelivery after restart", func() bool { return o2.Redelivered() == 1 })
	if got.Load() < 3 {
		t.Fatalf("recovered envelope carried round %d, want >= 3", got.Load())
	}
	if err := o2.Close(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, o2.Stats())
	// Third incarnation: everything retired, nothing stale left behind.
	o3 := openTestOutbox(t, dir, Options{})
	defer o3.Close()
	if got := o3.Stats().Loaded; got != 0 {
		t.Fatalf("final reopen loaded %d envelopes, want 0", got)
	}
	checkLedger(t, o3.Stats())
}

// checkLedger asserts the outbox's ledger: every envelope handed in or
// loaded was redelivered, dropped, or is still pending.
func checkLedger(t *testing.T, st Stats) {
	t.Helper()
	if in, out := st.Puts+st.Loaded, st.Redelivered+st.Dropped+int64(st.Pending); in != out {
		t.Fatalf("outbox ledger: puts %d + loaded %d != redelivered %d + dropped %d + pending %d",
			st.Puts, st.Loaded, st.Redelivered, st.Dropped, st.Pending)
	}
}

// TestOutboxRoundDoesNotWaitOnDisk: a failed round is staged, not waited
// on. With the journal's disk held from inside the first round, that
// round's re-persisted envelope is staged, counted and pushed back, and
// the next due envelope's round still runs; once the disk is released
// both are delivered.
func TestOutboxRoundDoesNotWaitOnDisk(t *testing.T) {
	o := openTestOutbox(t, t.TempDir(), Options{Backoff: time.Millisecond, BackoffCap: time.Millisecond})
	defer o.Kill()
	held := make(chan func(), 1)
	var calls atomic.Int64
	var other atomic.Bool
	if err := o.Start(func(_ string, e *Entry) (int, error) {
		if calls.Add(1) == 1 {
			held <- o.log.HoldFilesForTest()
			return 1, errors.New("down")
		}
		if e.User == "user-1" {
			other.Store(true)
		}
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(<-held)
	defer release() // before Kill, which flushes the journal
	e1 := testEntry(1)
	e1.Due = time.Now() // due at once, behind the held round
	returnsWithin(t, 5*time.Second, "a Handoff over a stalled disk", func() {
		if err := o.Handoff("", e1); err != nil {
			t.Error(err)
		}
	})
	round1 := testEntry(0)
	round1.Round = 1
	waitFor(t, "the failed round to be staged and counted", func() bool {
		return o.log.Has(round1.key()) && o.rounds.Load() == 1 // not Stats: the journal's half waits on the held disk
	})
	waitFor(t, "the next due envelope's round", other.Load)
	release()
	waitFor(t, "both redeliveries", func() bool { return o.Redelivered() == 2 })
	checkLedger(t, o.Stats())
}

// TestOutboxOverSharedJournal: an outbox built with New over a journal
// it does not own hands off by retiring the owner's record in the same
// ReplaceAsync, reports no journal stats of its own, and leaves the journal
// open at Close. Load on the reopened journal schedules the envelope,
// names the alert it supersedes, and leaves the owner's other records
// alone.
func TestOutboxOverSharedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.wal")
	l, err := plog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(0)
	alertKey := e.dedupKey()
	if err := l.LogReceived(alertKey, []byte{0xA1}, time.Now()); err != nil {
		t.Fatal(err)
	}
	o := New(l, Options{Clock: clock.NewReal(), Backoff: time.Hour})
	if err := o.Handoff(alertKey, e); err != nil {
		t.Fatal(err)
	}
	if !l.IsProcessed(alertKey) || !l.Has(e.key()) || l.Pending() != 1 {
		t.Fatalf("after the handoff: alert processed %v, envelope logged %v, %d pending; want true, true, 1",
			l.IsProcessed(alertKey), l.Has(e.key()), l.Pending())
	}
	if st := o.Stats(); st.Log.Syncs != 0 || st.Log.DiskBytes != 0 {
		t.Fatalf("outbox over a shared journal reports journal stats %+v, want none", st.Log)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("owner-record", []byte("the owner's"), time.Now()); err != nil {
		t.Fatalf("journal unusable after the outbox closed: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := plog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	o2 := New(l2, Options{Clock: clock.NewReal(), Backoff: time.Hour})
	owned := o2.Load(l2.Unprocessed())
	if _, ok := owned[alertKey]; !ok || len(owned) != 1 || o2.Pending() != 1 {
		t.Fatalf("Load owns %q with %d pending, want just %q with 1", owned, o2.Pending(), alertKey)
	}
	if l2.IsProcessed("owner-record") {
		t.Fatal("Load tombstoned a record that is not an envelope")
	}
	checkLedger(t, o2.Stats())
}

// TestOutboxEscalatesEveryKRounds checks the offset advances after
// every EscalateEvery exhausted rounds and clamps at the delivery
// plan's last block.
func TestOutboxEscalatesEveryKRounds(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir, Options{Backoff: time.Millisecond, BackoffCap: time.Millisecond, EscalateEvery: 2})
	defer o.Close()
	const blocks = 3
	type seen struct{ round, offset int }
	var mu atomic.Pointer[[]seen]
	mu.Store(&[]seen{})
	if err := o.Start(func(_ string, e *Entry) (int, error) {
		s := append(*mu.Load(), seen{e.Round, e.Offset})
		mu.Store(&s)
		return blocks, errors.New("down")
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "eight failed rounds", func() bool { return o.Stats().Rounds >= 8 })
	o.Kill()
	if got := o.Escalated(); got != blocks-1 {
		t.Fatalf("escalated %d times, want %d (then clamped)", got, blocks-1)
	}
	for _, s := range *mu.Load() {
		want := s.round / 2 // offset advances every 2 rounds...
		if want > blocks-1 {
			want = blocks - 1 // ...until the last block
		}
		if s.offset != want {
			t.Fatalf("round %d ran at offset %d, want %d", s.round, s.offset, want)
		}
	}
}

// TestOutboxDropsUndeliverable checks ErrDrop retires the envelope as
// lost instead of retrying forever.
func TestOutboxDropsUndeliverable(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir, Options{Backoff: time.Millisecond})
	if err := o.Start(func(_ string, e *Entry) (int, error) {
		return 0, fmt.Errorf("tenant gone: %w", ErrDrop)
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drop", func() bool { return o.Stats().Dropped == 1 })
	st := o.Stats()
	if st.Pending != 0 || st.Redelivered != 0 {
		t.Fatalf("stats after drop = %+v, want nothing pending or redelivered", st)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openTestOutbox(t, dir, Options{})
	defer reopened.Close()
	if got := reopened.Stats().Loaded; got != 0 {
		t.Fatalf("dropped envelope resurrected: loaded %d", got)
	}
}

// TestOutboxPutIsIdempotent re-puts an envelope already pending at the
// same round; the scheduled copy owns it.
func TestOutboxPutIsIdempotent(t *testing.T) {
	o := openTestOutbox(t, t.TempDir(), Options{Backoff: time.Hour})
	defer o.Kill()
	e := testEntry(0)
	if err := o.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(e); err != nil {
		t.Fatal(err)
	}
	if got := o.Pending(); got != 1 {
		t.Fatalf("pending = %d after double put, want 1", got)
	}
	if got := o.Stats().Puts; got != 1 {
		t.Fatalf("puts = %d, want 1", got)
	}
}

// TestOutboxRejectsInvalidEntries checks validation failures surface
// on Put instead of poisoning the journal.
func TestOutboxRejectsInvalidEntries(t *testing.T) {
	o := openTestOutbox(t, t.TempDir(), Options{})
	defer o.Kill()
	bad := []Entry{
		{},
		{User: "u" + keySep + "v", Category: "c", Alert: testAlert(0)},
		{User: "u", Category: "c\nd", Alert: testAlert(0)},
		{User: "u", Category: "c", Alert: testAlert(0), Round: -1},
	}
	for i, e := range bad {
		if err := o.Put(e); err == nil {
			t.Errorf("Put(bad[%d]) accepted invalid entry %+v", i, e)
		}
	}
	if got := o.Pending(); got != 0 {
		t.Fatalf("pending = %d after invalid puts, want 0", got)
	}
}

// TestOutboxTombstonesGarbageRecords seeds the journal with records no
// decoder can love and checks reopen tombstones them instead of
// replaying or crashing.
func TestOutboxTombstonesGarbageRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.outbox")
	l, err := plog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := l.LogReceived("no-separator", []byte("junk"), now); err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("user"+keySep+"x|y|1"+keySep+"0", []byte("not an envelope"), now); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	o := openTestOutbox(t, dir, Options{Path: path})
	if st := o.Stats(); st.Loaded != 0 || st.Pending != 0 {
		t.Fatalf("garbage records replayed: %+v", st)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openTestOutbox(t, dir, Options{Path: path})
	defer reopened.Close()
	if got := len(reopened.log.Unprocessed()); got != 0 {
		t.Fatalf("garbage records not tombstoned: %d unprocessed", got)
	}
}

// TestOutboxCloseKeepsInFlightRoundsMark pins the graceful-shutdown
// order: a redelivery round that is inside the channel when Close is
// called still gets its mark, so the next incarnation finds nothing to
// redeliver. (Close used to refuse marks before it waited for the
// loop; the delivered envelope then replayed — a duplicate outside
// every named crash window.)
func TestOutboxCloseKeepsInFlightRoundsMark(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir, Options{Backoff: time.Millisecond})
	inRound, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Int64
	if err := o.Start(func(_ string, e *Entry) (int, error) {
		close(inRound)
		<-release
		delivered.Add(1)
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Put(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	<-inRound
	if got := o.Pending(); got != 1 {
		t.Fatalf("Pending() = %d mid-round, want 1 (the popped envelope is still owed a mark)", got)
	}
	closed := make(chan error, 1)
	go func() { closed <- o.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a round was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := o.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Close, want 0", got)
	}
	reopened := openTestOutbox(t, dir, Options{})
	defer reopened.Close()
	if got := reopened.Stats().Loaded; got != 0 {
		t.Fatalf("reopen loaded %d envelopes, want 0: the delivered round was not marked", got)
	}
	if got := delivered.Load(); got != 1 {
		t.Fatalf("sink saw %d deliveries, want 1", got)
	}
}

// returnsWithin fails the test unless f returns within d.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestOutboxPollDoesNotWaitOnDisk: with the journal's file lock held, a
// Put stages and schedules its envelope at once, and the reads the
// supervisor polls complete; only Put's return waits for the fsync.
func TestOutboxPollDoesNotWaitOnDisk(t *testing.T) {
	o := openTestOutbox(t, t.TempDir(), Options{Backoff: time.Hour})
	defer o.Kill()
	release := sync.OnceFunc(o.log.HoldFilesForTest())
	defer release() // before Kill, which flushes the journal
	put := make(chan error, 1)
	go func() { put <- o.Put(testEntry(0)) }()
	waitFor(t, "the Put to stage", func() bool { return o.log.Has(entryKey(0)) })
	returnsWithin(t, 5*time.Second, "polling the outbox over a stalled disk", func() {
		if got := o.Pending(); got != 1 {
			t.Errorf("Pending() = %d, want 1: the staged envelope is scheduled", got)
		}
		if _, ok := o.OldestDue(); !ok {
			t.Error("OldestDue() reports nothing, want the staged envelope's due time")
		}
	})
	select {
	case err := <-put:
		t.Fatalf("Put returned (%v) before its fsync", err)
	default:
	}
	release()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
}

// TestOutboxConcurrentPutsShareFsyncs: Puts stage one after another but
// wait together, so N of them that meet a busy disk are all durable on
// return for fewer than N fsyncs.
func TestOutboxConcurrentPutsShareFsyncs(t *testing.T) {
	const n = 16
	o := openTestOutbox(t, t.TempDir(), Options{Backoff: time.Hour})
	defer o.Kill()
	before := o.Stats().Log.Syncs
	release := o.log.HoldFilesForTest()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := o.Put(testEntry(i)); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "every Put to stage", func() bool {
		for i := 0; i < n; i++ {
			if !o.log.Has(entryKey(i)) {
				return false
			}
		}
		return true
	})
	release()
	wg.Wait()
	if got := o.Stats().Log.Syncs - before; got > 2 {
		t.Fatalf("%d concurrent Puts took %d fsyncs, want at most 2 (the first to stage may commit alone)", n, got)
	}
	crash, err := plog.Open(o.log.Path()) // what a crash right now would find
	if err != nil {
		t.Fatal(err)
	}
	defer crash.Close()
	if got := len(crash.Unprocessed()); got != n || o.Pending() != n {
		t.Fatalf("%d envelopes on disk, %d pending, want %d of each", got, o.Pending(), n)
	}
}

// TestOutboxLazyRetireReplaysOnlyAfterCrash is the price of a retire
// that buys no fsync: an envelope delivered and retired, whose mark a
// crash catches still unflushed, replays on reopen and is redelivered
// exactly once more. The crash is an image of the journal taken while
// the mark is held (Kill itself closes the journal, which flushes); a
// graceful Close loses nothing.
func TestOutboxLazyRetireReplaysOnlyAfterCrash(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir, Options{Backoff: time.Millisecond})
	if err := o.Start(func(_ string, e *Entry) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	var image string
	for i := 0; i < 5 && image == ""; i++ {
		waitFor(t, "earlier marks to flush", func() bool { return o.Stats().Log.UnflushedDones == 0 })
		if err := o.Put(testEntry(i)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "redelivery", func() bool { return o.Redelivered() == int64(i+1) && o.Pending() == 0 })
		img := t.TempDir()
		if err := os.CopyFS(img, os.DirFS(dir)); err != nil { // a crash image of the journal, as of now
			t.Fatal(err)
		}
		if o.Stats().Log.UnflushedDones == 1 { // held throughout the copy
			image = img
		}
	}
	if image == "" {
		t.Fatal("no retire's mark stayed unflushed across a directory copy: retire buys its own fsync")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	clean := openTestOutbox(t, dir, Options{})
	defer clean.Close()
	if got := clean.Stats().Loaded; got != 0 {
		t.Fatalf("reopen after Close loaded %d envelopes, want 0: Close flushes held marks", got)
	}

	crashed := openTestOutbox(t, image, Options{Backoff: time.Millisecond})
	if got := crashed.Stats().Loaded; got != 1 {
		t.Fatalf("reopen on the crash image loaded %d envelopes, want the 1 whose mark was held", got)
	}
	var again atomic.Int64
	if err := crashed.Start(func(_ string, e *Entry) (int, error) { again.Add(1); return 1, nil }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the replayed envelope's redelivery", func() bool { return crashed.Redelivered() == 1 })
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	final := openTestOutbox(t, image, Options{})
	defer final.Close()
	if final.Stats().Loaded != 0 || again.Load() != 1 {
		t.Fatalf("after the replay: %d still pending, %d redeliveries, want 0 and exactly 1", final.Stats().Loaded, again.Load())
	}
}
