package hub

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/mab"
	"simba/internal/plog"
)

// countingSink records per-(user, key) delivery counts across hub
// incarnations. With a hold channel, every delivery blocks until the
// channel is closed, and each Deliver call signals arrived before
// blocking — so a test can park a known set of deliveries inside the
// delivery window, arm a fault, and release them all at once.
type countingSink struct {
	hold    chan struct{} // nil = open
	arrived chan struct{} // buffered; one signal per Deliver entry

	mu     sync.Mutex
	counts map[string]int
}

func newCountingSink(hold chan struct{}) *countingSink {
	return &countingSink{
		hold:    hold,
		arrived: make(chan struct{}, 1024),
		counts:  make(map[string]int),
	}
}

func (s *countingSink) Deliver(shard int, user string, a *alert.Alert) error {
	select {
	case s.arrived <- struct{}{}:
	default:
	}
	if s.hold != nil {
		<-s.hold
	}
	s.mu.Lock()
	s.counts[user+"/"+a.DedupKey()]++
	s.mu.Unlock()
	return nil
}

// waitArrivals blocks until n deliveries have entered the sink.
func (s *countingSink) waitArrivals(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-s.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d deliveries reached the sink", i, n)
		}
	}
}

func (s *countingSink) count(user, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[user+"/"+key]
}

// drainArrivals discards buffered arrival signals, so a later
// waitArrivals observes only deliveries entering the sink after this
// point. Call it only while the sink is quiescent (e.g. right after
// waitTotal).
func (s *countingSink) drainArrivals() {
	for {
		select {
		case <-s.arrived:
		default:
			return
		}
	}
}

// waitTotal blocks until n deliveries have completed. Kill abandons
// in-flight deliveries without waiting for them (Stopped() can fire
// while a worker is still inside the sink), so tests asserting
// pre-crash counts must quiesce the sink explicitly.
func (s *countingSink) waitTotal(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		total := 0
		for _, c := range s.counts {
			total += c
		}
		s.mu.Unlock()
		if total >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink saw %d deliveries, want %d", total, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHubCrashBetweenRoutingAndMark kills the hub in the window the
// paper's dedup contract covers — now *inside the asynchronous delivery
// stage*: each user's first delivery is parked in the sink (inside the
// in-flight window), the fault is armed, and the deliveries are
// released. The first to complete kills the hub before any DONE record
// lands, so every logged alert is replayed by the next incarnation; the
// delivered-but-unmarked alerts (one per user — per-user FIFO means
// only the head of each chain was in flight) are the documented
// duplicates the timestamp contract detects. Everything else is
// delivered exactly once and nothing is lost.
func TestHubCrashBetweenRoutingAndMark(t *testing.T) {
	const users, perUser = 4, 3
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	journal := &faults.Journal{}
	crash := faults.NewFlag("hub-crash-before-mark")
	hold := make(chan struct{})
	sink := newCountingSink(hold)

	cfg := Config{
		Clock: clk, Channels: sinkChannels(sink.Deliver), WALPath: walPath,
		Shards: 1, QueueDepth: 64,
		Journal: journal, Fault: crashAt(FaultBeforeMark, crash),
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}

	// Submit everything while the sink holds every delivery, so the
	// whole workload is durably logged — and each user's first alert is
	// parked inside the delivery window — when the crash fires.
	var keys []string // "user/dedupKey", submission order
	for i := 0; i < users*perUser; i++ {
		user := fmt.Sprintf("user-%d", i%users)
		a := portalAlert(i, clk.Now())
		if err := h1.Submit(user, a); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, user+"/"+a.DedupKey())
	}
	// Per-user FIFO: exactly one in-flight delivery per user; the rest
	// of each chain waits behind it.
	sink.waitArrivals(t, users)
	// Arm the fault and release the parked deliveries: each completes
	// its sink call, then dies before MarkProcessed.
	crash.Set(true, clk.Now())
	close(hold)
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not die after fault injection")
	}
	if journal.Count(faults.KindFaultInjected) != 1 {
		t.Fatalf("fault-injected journal entries = %d, want 1", journal.Count(faults.KindFaultInjected))
	}
	if err := h1.Submit("user-0", portalAlert(999, clk.Now())); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("submit to killed hub = %v, want ErrNotAccepting", err)
	}
	// Kill abandons the in-flight window: let the released sink calls
	// finish before reading counts.
	sink.waitTotal(t, users)
	// Pre-crash, exactly the head of each user's chain was delivered.
	for i, uk := range keys {
		want := 0
		if i < users {
			want = 1
		}
		user, key, _ := cut(uk)
		if got := sink.count(user, key); got != want {
			t.Fatalf("pre-crash deliveries of alert %d (%s) = %d, want %d", i, uk, got, want)
		}
	}

	// Restart on the same WAL, fault cleared.
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
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}

	// Every logged alert was unprocessed at the crash (no DONE record
	// landed), so each is replayed exactly once.
	if got := h2.Counters().Get("replayed"); got != users*perUser {
		t.Fatalf("replayed = %d, want %d", got, users*perUser)
	}
	if got := journal.Count(faults.KindReplay); got != users*perUser {
		t.Fatalf("replay journal entries = %d, want %d", got, users*perUser)
	}
	// The delivered-but-unmarked alerts (each user's first) are the
	// duplicates: delivered twice under the same DedupKey. Every other
	// alert is delivered exactly once.
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
	// And the WAL is clean: nothing left to replay.
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

// TestHubRestartTombstonesOrphans checks that WAL entries for users no
// longer hosted are tombstoned, not replayed forever.
func TestHubRestartTombstonesOrphans(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	hold := make(chan struct{})
	sink := newCountingSink(hold)
	crash := faults.NewFlag("crash")
	h1, err := New(Config{Clock: clk, Channels: sinkChannels(sink.Deliver), WALPath: walPath, Shards: 1, Fault: crashAt(FaultBeforeMark, crash)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h1.AddUser("ghost")
	if err != nil {
		t.Fatal(err)
	}
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h1.Submit("ghost", portalAlert(1, clk.Now())); err != nil {
		t.Fatal(err)
	}
	sink.waitArrivals(t, 1)
	crash.Set(true, clk.Now())
	close(hold)
	<-h1.Stopped()

	// Restart without re-registering "ghost".
	sink2 := newCountingSink(nil)
	h2, err := New(Config{Clock: clk, Channels: sinkChannels(sink2.Deliver), WALPath: walPath, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("tombstoned"); got != 1 {
		t.Fatalf("tombstoned = %d, want 1", got)
	}
	if got := h2.Counters().Get("replayed"); got != 0 {
		t.Fatalf("replayed = %d, want 0", got)
	}
	l, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Fatalf("orphan entry not tombstoned: %d unprocessed", len(un))
	}
}

// cut splits "user/dedupKey" on the first slash.
func cut(uk string) (user, key string, ok bool) {
	for i := 0; i < len(uk); i++ {
		if uk[i] == '/' {
			return uk[:i], uk[i+1:], true
		}
	}
	return uk, "", false
}

// TestHubCrashInsideDoneHoldRedeliversWithOriginalTimestamp reaches the
// FaultBeforeMark window at its widest: alerts delivered, their DONEs
// staged, no arrival since to carry them to disk. A crash there — an
// image of the WAL directory taken while Stats().WAL.UnflushedDones says
// the marks are held — replays exactly those alerts, each redelivered
// once under its original dedup key (which embeds the alert timestamp the
// receiver dedups on); alerts whose marks were flushed are not.
func TestHubCrashInsideDoneHoldRedeliversWithOriginalTimestamp(t *testing.T) {
	const users = 4
	dir := t.TempDir()
	sink := newCountingSink(nil)
	cfg := Config{
		Clock: clock.NewReal(), Channels: sinkChannels(sink.Deliver),
		WALPath: filepath.Join(dir, "hub.wal"), Shards: 2, CommitWindow: 2 * time.Millisecond,
	}
	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Drain()
	addUsers(t, h1, users)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	var settled, held []string // "user/dedupKey"
	var image string
	for round := 0; round < 5 && image == ""; round++ {
		// Whatever earlier rounds left staged is flushed first, so the
		// image holds one round's marks and no others.
		if err := h1.CheckpointWAL(); err != nil {
			t.Fatal(err)
		}
		settled = append(settled, held...)
		held = held[:0]
		subs := make([]Submission, users) // one burst, one commit: no later arrival to ride
		for u := range subs {
			subs[u] = Submission{User: fmt.Sprintf("user-%d", u), Alert: portalAlert(round*users+u, time.Unix(985597200, int64(round)))}
			held = append(held, subs[u].User+"/"+subs[u].Alert.DedupKey())
		}
		for _, err := range h1.SubmitBatch(subs) {
			if err != nil {
				t.Fatal(err)
			}
		}
		waitCond(t, "the round to be delivered and its DONEs staged", func() bool { return h1.WALBacklog() == 0 })
		img := t.TempDir()
		if err := os.CopyFS(img, os.DirFS(dir)); err != nil { // a crash image of the journal, as of now
			t.Fatal(err)
		}
		if h1.Stats().WAL.UnflushedDones == users { // held throughout the copy
			image = img
		}
	}
	if image == "" {
		t.Fatal("no round's DONEs stayed unflushed across a directory copy: they are buying their own fsyncs")
	}

	cfg.WALPath = filepath.Join(image, "hub.wal")
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed"); got != users {
		t.Fatalf("replayed = %d, want the %d alerts whose DONEs were held", got, users)
	}
	for _, uk := range held {
		if user, key, _ := cut(uk); sink.count(user, key) != 2 {
			t.Fatalf("%s delivered %d times, want 2: once, then once more after the crash", uk, sink.count(user, key))
		}
	}
	for _, uk := range settled {
		if user, key, _ := cut(uk); sink.count(user, key) != 1 {
			t.Fatalf("%s delivered %d times, want 1: its DONE was durable before the crash", uk, sink.count(user, key))
		}
	}
}

// TestReplayedAlertRoutesAsSubmitted: an alert replayed after a crash is
// the alert that was submitted, so it routes and delivers as it would
// have without the crash — a keyword holding a comma still selects its
// category, and a multi-line subject arrives intact. (Journaled as wire
// text, the keyword would split at its comma and the subject flatten.)
func TestReplayedAlertRoutesAsSubmitted(t *testing.T) {
	submitted := &alert.Alert{
		ID: "a-1", Source: "portal", Keywords: []string{"a,b", ""}, Subject: "l1\nl2",
		Body: "body", Urgency: alert.UrgencyNormal, Created: time.Unix(985597200, 0),
	}
	type delivery struct{ category, subject string }
	run := func(crash bool) delivery {
		delivered := make(chan delivery, 1)
		cfg := Config{
			Clock: clock.NewReal(), WALPath: filepath.Join(t.TempDir(), "hub.wal"), Shards: 1,
			Channels: sinkChannels(func(_ int, _ string, a *alert.Alert) error {
				delivered <- delivery{a.Keywords[0], a.Subject}
				return nil
			}),
		}
		if crash {
			cfg.Fault = func(p FaultPoint, _ int, _ <-chan struct{}) bool { return p == FaultRoute }
		}
		start := func() *Hub {
			h := newTestHub(t, cfg)
			b, err := h.AddUser("user-0")
			if err != nil {
				t.Fatal(err)
			}
			b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
			b.Pipeline().Aggregator.Map("a,b", "Special")
			if err := h.Start(); err != nil {
				t.Fatal(err)
			}
			return h
		}
		h := start()
		if err := h.Submit("user-0", submitted); err != nil {
			t.Fatal(err)
		}
		if crash {
			select {
			case <-h.Stopped():
			case <-time.After(10 * time.Second):
				t.Fatal("hub did not die at FaultRoute")
			}
			cfg.Fault = nil
			h = start()
		}
		select {
		case d := <-delivered:
			return d
		case <-time.After(10 * time.Second):
			t.Fatalf("no delivery (crash %v)", crash)
			return delivery{}
		}
	}
	want := run(false)
	if want != (delivery{"Special", "l1\nl2"}) {
		t.Fatalf("crash-free run delivered %+v", want)
	}
	if got := run(true); got != want {
		t.Fatalf("replayed alert delivered %+v; the crash-free run delivered %+v", got, want)
	}
}
