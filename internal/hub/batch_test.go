package hub

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/plog"
)

// batchStream builds one user's deterministic alert mix: mostly routed
// "stocks" alerts, every 5th re-submitted as a duplicate, every 7th
// filtered (disabled "Muted" category), every 11th rejected (source
// the classifier does not accept).
func batchStream(user string, n int, at time.Time) []Submission {
	var subs []Submission
	for i := 0; i < n; i++ {
		a := portalAlert(i, at)
		a.ID = fmt.Sprintf("a-%s-%d", user, i)
		switch {
		case i > 0 && i%11 == 0:
			a.Source = "spam-bot"
		case i > 0 && i%7 == 0:
			a.Keywords = []string{"muted"}
		}
		subs = append(subs, Submission{User: user, Alert: a})
		if i%5 == 0 {
			subs = append(subs, Submission{User: user, Alert: a.Clone()})
		}
	}
	return subs
}

// addBatchUsers is addUsers plus the muted-category wiring the
// batchStream mix exercises.
func addBatchUsers(t testing.TB, h *Hub, n int) {
	t.Helper()
	addUsers(t, h, n)
	for i := 0; i < n; i++ {
		b, ok := h.buddy(fmt.Sprintf("user-%d", i))
		if !ok {
			t.Fatalf("user-%d missing", i)
		}
		b.Pipeline().Aggregator.Map("muted", "Muted")
		b.Pipeline().Filter.SetEnabled("Muted", false)
	}
}

// equivalenceCounters picks the counters the equivalence test compares.
var equivalenceCounters = []string{
	"received", "duplicates", "routed", "rejected", "filtered",
	"delivered", "rejects-overload", "mark-failed", "undeliverable",
}

// TestHubSubmitBatchMatchesSubmit is the equivalence property test: the
// same alert stream driven through Submit one-at-a-time, through
// SubmitBatch bursts of varied sizes, and through SubmitBatchAsync with
// a sliding window of tickets in flight must yield identical hub
// counters, identical per-user delivery order, and identical WAL record
// sets. Run under -race in CI: one goroutine per user keeps each user's
// submission order fixed while cross-user interleaving races freely.
func TestHubSubmitBatchMatchesSubmit(t *testing.T) {
	const users, perUser = 24, 30
	clk := clock.NewReal()

	// The same streams drive both variants; nothing in the ingest path
	// mutates a submitted alert (routing annotates the hub's private
	// clone), so sharing the pointers is safe.
	streams := make([][]Submission, users)
	var wantKeys []string
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		streams[u] = batchStream(user, perUser, clk.Now())
		seen := make(map[string]bool)
		for _, s := range streams[u] {
			key := s.User + keySep + s.Alert.DedupKey()
			if !seen[key] {
				seen[key] = true
				wantKeys = append(wantKeys, key)
			}
		}
	}

	type result struct {
		counters  map[string]int64
		sequences map[string][]string
		walLive   int
	}
	run := func(name string, drive func(h *Hub, stream []Submission)) result {
		sink := newOrderSink(dist.NewRNG(23), 4, 200)
		walPath := filepath.Join(t.TempDir(), name+".wal")
		h := newTestHub(t, Config{
			Clock: clk, Channels: sinkChannels(sink.Deliver), WALPath: walPath,
			Shards: 4, queueDepth: 1024,
			CommitWindow: 500 * time.Microsecond,
		})
		addBatchUsers(t, h, users)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(stream []Submission) {
				defer wg.Done()
				drive(h, stream)
			}(streams[u])
		}
		wg.Wait()
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		r := result{
			counters:  make(map[string]int64),
			sequences: make(map[string][]string),
		}
		for _, c := range equivalenceCounters {
			r.counters[c] = h.Counters().Get(c)
		}
		for u := 0; u < users; u++ {
			user := fmt.Sprintf("user-%d", u)
			r.sequences[user] = sink.sequence(user)
		}
		l, err := plog.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		r.walLive = int(l.Stats().Total)
		if un := l.Unprocessed(); len(un) != 0 {
			t.Fatalf("%s: %d unprocessed WAL records after drain", name, len(un))
		}
		for _, key := range wantKeys {
			if !l.IsProcessed(key) {
				t.Fatalf("%s: WAL missing processed record for %q", name, key)
			}
		}
		return r
	}

	// Queue capacity (4 shards × 1024) exceeds the whole workload, so
	// overload is impossible and neither variant needs a retry loop —
	// which would otherwise let a retried burst reorder a user's stream.
	seq := run("submit", func(h *Hub, stream []Submission) {
		for _, s := range stream {
			if err := h.Submit(s.User, s.Alert); err != nil {
				t.Errorf("submit %s: %v", s.User, err)
			}
		}
	})
	burstSizes := []int{7, 1, 16, 64, 3} // varied, including 1 and 64
	batch := run("submit-batch", func(h *Hub, stream []Submission) {
		for next, si := 0, 0; next < len(stream); si++ {
			end := next + burstSizes[si%len(burstSizes)]
			if end > len(stream) {
				end = len(stream)
			}
			for i, err := range h.SubmitBatch(stream[next:end]) {
				if err != nil {
					t.Errorf("submit batch %s: %v", stream[next+i].User, err)
				}
			}
			next = end
		}
	})
	// Pipelined: up to asyncDepth bursts in flight per user; the ticket
	// window preserves the user's submission order because bursts stage
	// in submit order and the resolver is FIFO.
	async := run("submit-async", func(h *Hub, stream []Submission) {
		const asyncDepth = 4
		var inflight []<-chan []error
		settle := func(res <-chan []error) {
			for _, err := range <-res {
				if err != nil {
					t.Errorf("submit async: %v", err)
				}
			}
		}
		for next, si := 0, 0; next < len(stream); si++ {
			end := next + burstSizes[si%len(burstSizes)]
			if end > len(stream) {
				end = len(stream)
			}
			inflight = append(inflight, submitAsync(h, stream[next:end]))
			if len(inflight) >= asyncDepth {
				settle(inflight[0])
				inflight = inflight[1:]
			}
			next = end
		}
		for _, tk := range inflight {
			settle(tk)
		}
	})

	for name, got := range map[string]result{"submitBatch": batch, "submitBatchAsync": async} {
		if !reflect.DeepEqual(seq.counters, got.counters) {
			t.Errorf("counters diverge:\n  submit:  %v\n  %s: %v", seq.counters, name, got.counters)
		}
		for u := 0; u < users; u++ {
			user := fmt.Sprintf("user-%d", u)
			if !reflect.DeepEqual(seq.sequences[user], got.sequences[user]) {
				t.Errorf("%s delivery order diverges:\n  submit:  %v\n  %s: %v",
					user, seq.sequences[user], name, got.sequences[user])
			}
		}
		if seq.walLive != got.walLive {
			t.Errorf("WAL record counts diverge: submit=%d %s=%d", seq.walLive, name, got.walLive)
		}
	}
}

// TestSubmitBatchPartialErrors mixes an invalid alert and an unknown
// user into one burst: those entries fail with Submit's exact errors
// while the rest of the burst is acknowledged and delivered.
func TestSubmitBatchPartialErrors(t *testing.T) {
	clk := clock.NewReal()
	sink := newOrderSink(dist.NewRNG(41), 2, 0)
	h := newTestHub(t, Config{Clock: clk, Channels: sinkChannels(sink.Deliver), Shards: 2, queueDepth: 64})
	addUsers(t, h, 2)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	good := portalAlert(0, clk.Now())
	good.ID = "a-good"
	burst := []Submission{
		{User: "user-0", Alert: good},
		{User: "user-0", Alert: &alert.Alert{Source: "portal"}}, // invalid: no ID
		{User: "nobody", Alert: portalAlert(1, clk.Now())},
		{User: "user-1", Alert: good.Clone()}, // same alert, different tenant: distinct WAL key
	}
	errs := h.SubmitBatch(burst)
	if errs[0] != nil {
		t.Fatalf("valid entry: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("invalid alert acknowledged")
	}
	if !errors.Is(errs[2], ErrUnknownUser) {
		t.Fatalf("unknown-user entry = %v, want ErrUnknownUser", errs[2])
	}
	if errs[3] != nil {
		t.Fatalf("user-1 entry: %v", errs[3])
	}
	// Re-submitting the acked alert twice in one burst: both are
	// idempotent re-acks, including the burst-internal repeat.
	again := h.SubmitBatch([]Submission{
		{User: "user-0", Alert: good.Clone()},
		{User: "user-0", Alert: good.Clone()},
	})
	if again[0] != nil || again[1] != nil {
		t.Fatalf("duplicate re-ack failed: %v", again)
	}
	if got := h.Counters().Get("duplicates"); got != 2 {
		t.Fatalf("duplicates = %d, want 2", got)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sink.sequence("user-0"); len(got) != 1 || got[0] != "a-good" {
		t.Fatalf("user-0 deliveries = %v, want just a-good", got)
	}
	if got := sink.sequence("user-1"); len(got) != 1 {
		t.Fatalf("user-1 deliveries = %v, want one", got)
	}
	if got := h.Counters().Get("rejected-invalid"); got != 1 {
		t.Fatalf("rejected-invalid = %d, want 1", got)
	}
	if got := h.Counters().Get("rejected-unknown-user"); got != 1 {
		t.Fatalf("rejected-unknown-user = %d, want 1", got)
	}
}

// TestHubSubmitBatchAsyncOnClosedHub pins the pipelined path's
// closed-hub answer: before Start and after Drain, more calls than
// there are async slots each run their callback exactly once, before
// returning, with ErrNotAccepting on every entry — none takes a slot,
// so none blocks.
func TestHubSubmitBatchAsyncOnClosedHub(t *testing.T) {
	h := newTestHub(t, Config{Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }), Shards: 2})
	addUsers(t, h, 2)
	closed := func(when string) {
		t.Helper()
		const calls = defaultAsyncInFlight + 1
		var callbacks [calls]int
		done := make(chan struct{})
		go func() {
			defer close(done)
			now := h.cfg.Clock.Now()
			for i := range calls {
				subs := []Submission{{User: "user-0", Alert: portalAlert(2*i, now)}, {User: "user-1", Alert: portalAlert(2*i+1, now)}}
				var res []error
				h.SubmitBatchAsync(subs, func(errs []error) { callbacks[i]++; res = errs })
				if callbacks[i] != 1 {
					t.Errorf("%s: call %d returned before its callback ran", when, i)
					return
				}
				for k, err := range res {
					if !errors.Is(err, ErrNotAccepting) {
						t.Errorf("%s: call %d entry %d = %v, want ErrNotAccepting", when, i, k, err)
					}
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: SubmitBatchAsync blocked on a closed hub", when)
		}
		for i, n := range callbacks {
			if n != 1 {
				t.Fatalf("%s: call %d ran its callback %d times", when, i, n)
			}
		}
	}
	closed("before Start")
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("user-0", portalAlert(-1, h.cfg.Clock.Now())); err != nil {
		t.Fatalf("started hub refused an alert: %v", err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	closed("after Drain")
}

// TestSubmitBatchBulkOverload fills a one-shard hub whose deliveries
// are gated shut, then offers a burst twice the queue depth: the bulk
// reservation grants exactly the shard's free capacity, the admitted
// prefix is acked, and the overflow fails per-entry with OverloadError
// — never logged, never delivered.
func TestSubmitBatchBulkOverload(t *testing.T) {
	clk := clock.NewReal()
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	sink := sinkChannels(func(shard int, user string, a *alert.Alert) error {
		<-gate
		return nil
	})
	h := newTestHub(t, Config{
		Clock: clk, Channels: sink, Shards: 1, queueDepth: 4, deliveryWindow: 1,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var burst []Submission
	for i := 0; i < 8; i++ {
		a := portalAlert(i, clk.Now())
		a.ID = fmt.Sprintf("a-ov-%d", i)
		burst = append(burst, Submission{User: "user-0", Alert: a})
	}
	errs := h.SubmitBatch(burst)
	for i, err := range errs {
		if i < 4 {
			if err != nil {
				t.Fatalf("entry %d inside capacity: %v", i, err)
			}
			continue
		}
		var over *OverloadError
		if !errors.As(err, &over) {
			t.Fatalf("entry %d = %v, want OverloadError", i, err)
		}
		if over.Shard != 0 || over.RetryAfter <= 0 {
			t.Fatalf("entry %d overload detail: %+v", i, over)
		}
		// The rejected alert was never logged, so a retry cannot be
		// mistaken for a duplicate.
		if h.wal.Has("user-0" + keySep + burst[i].Alert.DedupKey()) {
			t.Fatalf("overloaded entry %d was logged", i)
		}
	}
	if got := h.Counters().Get("rejects-overload"); got != 4 {
		t.Fatalf("rejects-overload = %d, want 4", got)
	}
	openGate()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h.Counters().Get("delivered"); got != 4 {
		t.Fatalf("delivered = %d, want 4", got)
	}
}

// TestTicketResolvesInStagingOrder pins the invariant the one resolver
// carries alone: two bursts for one user staged back-to-back through
// SubmitBatchAsync are enqueued (hence, per-user FIFO, delivered) in
// staging order — also when both land in the same commit batch, where
// the journal's batch order says nothing about which came first.
func TestTicketResolvesInStagingOrder(t *testing.T) {
	const rounds, per = 40, 4
	clk := clock.NewReal()
	sink := newOrderSink(dist.NewRNG(53), 2, 0)
	h := newTestHub(t, Config{
		Clock: clk, Channels: sinkChannels(sink.Deliver), Shards: 2, queueDepth: 1024,
		CommitWindow: 2 * time.Millisecond,
	})
	addUsers(t, h, 2)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	next := 0
	var want []string
	burst := func(user string, n int) []Submission {
		subs := make([]Submission, n)
		for i := range subs {
			a := portalAlert(next, clk.Now())
			next++
			if user == "user-0" {
				want = append(want, a.ID)
			}
			subs[i] = Submission{User: user, Alert: a}
		}
		return subs
	}
	shared := 0
	for r := 0; r < rounds; r++ {
		// The primer's fsync keeps the committer on the disk while the
		// two bursts stage, so they join one open batch.
		primer := stagedBurst(t, h, burst("user-1", 1))
		a := stagedBurst(t, h, burst("user-0", per))
		b := stagedBurst(t, h, burst("user-0", per))
		<-primer
		if <-a == <-b {
			shared++
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d rounds staged both bursts into one commit batch", shared, rounds)
	if shared == 0 {
		t.Fatalf("no two bursts shared a commit batch in %d rounds; the case is not exercised", rounds)
	}
	if got := sink.sequence("user-0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("user-0 delivered out of staging order (%d rounds shared a batch):\n got %v\nwant %v", shared, got, want)
	}
}

// TestStopJoinsResolver: Drain, Kill and Stopped complete only once the
// commit resolver has exited, so nothing of a stopped hub runs on. A
// callback parks the resolver while the stop is under way: until it
// returns, the hub has not stopped and Drain has not returned.
func TestStopJoinsResolver(t *testing.T) {
	for _, stop := range []string{"Drain", "Kill"} {
		t.Run(stop, func(t *testing.T) {
			h := newTestHub(t, Config{Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil })})
			addUsers(t, h, 1)
			if err := h.Start(); err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan struct{}), make(chan struct{})
			var returned atomic.Bool
			h.SubmitBatchAsync([]Submission{{User: "user-0", Alert: portalAlert(0, h.cfg.Clock.Now())}}, func([]error) {
				close(entered)
				<-release
				returned.Store(true)
			})
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the burst's callback never ran")
			}
			var drained chan error // nil for Kill: never ready
			if stop == "Drain" {
				drained = make(chan error, 1)
				go func() { drained <- h.Drain() }()
			} else {
				h.Kill()
			}
			select {
			case <-h.Stopped():
				t.Fatal("the hub stopped while its resolver was running a callback")
			case <-drained:
				t.Fatal("Drain returned while the resolver was running a callback")
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			select {
			case <-h.Stopped():
			case <-time.After(10 * time.Second):
				t.Fatal("the hub did not stop once the callback returned")
			}
			if !returned.Load() {
				t.Fatal("the hub stopped before its resolver's callback returned")
			}
			if drained != nil {
				if err := <-drained; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// submitAsync submits subs through SubmitBatchAsync; the returned
// channel receives the burst's results when its callback runs.
func submitAsync(h *Hub, subs []Submission) <-chan []error {
	res := make(chan []error, 1)
	h.SubmitBatchAsync(subs, func(errs []error) { res <- errs })
	return res
}

// stagedBurst submits subs as SubmitBatchAsync does, failing the test
// on an entry's error, and returns a channel that receives the commit
// the burst joined: the callback reads it from the ticket, which is
// recycled only after the callback returns.
func stagedBurst(t *testing.T, h *Hub, subs []Submission) <-chan plog.Commit {
	t.Helper()
	res := make(chan plog.Commit, 1)
	tk := ticketPool.Get().(*ticket)
	tk.n = len(subs)
	tk.onCommitted = func(errs []error) {
		for _, err := range errs {
			if err != nil {
				t.Errorf("staged burst: %v", err)
			}
		}
		res <- tk.c
	}
	h.submit(tk, subs)
	return res
}

// TestPooledTicketsKeepEachBurstsErrors runs several async submitters
// at once, each burst carrying an unknown user at a position the burst
// number picks (every third burst none), with pool poisoning on: every
// callback must see exactly its own burst's errors — ErrUnknownUser at
// that position, nil elsewhere — though the tickets that carry them are
// pooled and recycled between bursts, and every result must still read
// so once all bursts are done, as a caller that keeps it would see it.
// A ticket touched after its recycle, or a result written into another
// burst's slice or recycled with its ticket, fails here (under -race,
// loudly).
func TestPooledTicketsKeepEachBurstsErrors(t *testing.T) {
	const submitters, bursts, size = 4, 150, 8
	poolPoison.Store(true)
	defer poolPoison.Store(false)
	hits := poolPoisonHits.Load()
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   4, queueDepth: submitters * bursts * size, // no burst is refused
	})
	addUsers(t, h, 4)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var results [submitters][bursts][]error
	check := func(g, k int, errs []error) {
		unknown := -1 // the position of the unknown user; none in every third burst
		if k%3 != 0 {
			unknown = (g + k) % size
		}
		if len(errs) != size {
			t.Errorf("submitter %d burst %d: %d results, want %d", g, k, len(errs), size)
			return
		}
		for i, err := range errs {
			if want := i == unknown; want != errors.Is(err, ErrUnknownUser) || !want && err != nil {
				t.Errorf("submitter %d burst %d entry %d = %v; the unknown user is at %d", g, k, i, err, unknown)
			}
		}
	}
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := h.cfg.Clock.Now()
			done := make(chan struct{}, bursts)
			for k := range bursts {
				subs := make([]Submission, size)
				for i := range subs {
					a := portalAlert(i, now)
					a.ID = fmt.Sprintf("a-%d-%d-%d", g, k, i)
					subs[i] = Submission{User: fmt.Sprintf("user-%d", g), Alert: a}
				}
				if k%3 != 0 {
					subs[(g+k)%size].User = "nobody"
				}
				h.SubmitBatchAsync(subs, func(errs []error) {
					check(g, k, errs)
					results[g][k] = errs
					done <- struct{}{}
				})
			}
			for range bursts {
				<-done
			}
		}()
	}
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	for g := range submitters {
		for k := range bursts {
			check(g, k, results[g][k])
		}
	}
	if got := h.Counters().Get("rejected-unknown-user"); got != submitters*bursts*2/3 {
		t.Fatalf("rejected-unknown-user = %d, want %d", got, submitters*bursts*2/3)
	}
	if n := poolPoisonHits.Load() - hits; n != 0 {
		t.Fatalf("%d poison hits", n)
	}
}

// TestSharedNoErrorResult pins the result a burst without a failed
// entry gets: one shared, capacity-limited slice of nils, the hub's
// same array for every such burst, sync or async. Under pool poisoning a
// recycled ticket checks that the shared slice still holds only nils,
// so a caller that writes into it is counted as a poison hit; the test
// plays that caller and restores the slot afterwards.
func TestSharedNoErrorResult(t *testing.T) {
	poolPoison.Store(true)
	defer poolPoison.Store(false)
	h := newTestHub(t, Config{Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }), Shards: 2})
	addUsers(t, h, 2)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	next := 0
	burst := func() []Submission {
		subs := make([]Submission, 4)
		for i := range subs {
			subs[i] = Submission{User: fmt.Sprintf("user-%d", i%2), Alert: portalAlert(next, h.cfg.Clock.Now())}
			next++
		}
		return subs
	}
	hits := poolPoisonHits.Load()
	// The async burst first: its ticket is recycled on the resolver
	// before the sync burst's resolves, so nothing reads the shared
	// result while the test writes into it below.
	async := <-submitAsync(h, burst())
	first := h.SubmitBatch(burst())
	for name, errs := range map[string][]error{"SubmitBatch": first, "SubmitBatchAsync": async} {
		if len(errs) != 4 || cap(errs) != 4 || errs[0] != nil || errs[3] != nil {
			t.Fatalf("%s: result %v with capacity %d, want 4 nils with capacity 4", name, errs, cap(errs))
		}
	}
	if &first[0] != &async[0] {
		t.Fatal("two bursts without a failure got results of their own, not the shared one")
	}
	if n := poolPoisonHits.Load() - hits; n != 0 {
		t.Fatalf("%d poison hits before anything wrote into the shared result", n)
	}
	first[1] = errors.New("written by the caller")
	h.SubmitBatch(burst())
	first[1] = nil
	if n := poolPoisonHits.Load() - hits; n == 0 {
		t.Fatal("a non-nil entry in the shared result went unnoticed under pool poisoning")
	}
	poolPoisonHits.Store(hits)
}
