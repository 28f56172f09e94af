package hub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dist"
)

// orderSink sleeps a random per-delivery delay (real time, so worker
// interleavings genuinely race) and records each user's delivered alert
// IDs in completion order, plus the peak number of concurrently
// executing deliveries.
type orderSink struct {
	rngs  []*dist.RNG
	maxUS int // per-delivery delay in [0, maxUS) microseconds

	cur, peak atomic.Int64

	mu  sync.Mutex
	seq map[string][]string // user → delivered IDs, completion order
}

func newOrderSink(rng *dist.RNG, shards, maxUS int) *orderSink {
	s := &orderSink{maxUS: maxUS, seq: make(map[string][]string)}
	for i := 0; i < shards; i++ {
		s.rngs = append(s.rngs, rng.Fork(fmt.Sprintf("order-sink-%d", i)))
	}
	return s
}

func (s *orderSink) Deliver(shard int, user string, a *alert.Alert) error {
	c := s.cur.Add(1)
	for {
		p := s.peak.Load()
		if c <= p || s.peak.CompareAndSwap(p, c) {
			break
		}
	}
	if s.maxUS > 0 {
		time.Sleep(time.Duration(s.rngs[shard%len(s.rngs)].Intn(s.maxUS)) * time.Microsecond)
	}
	s.mu.Lock()
	s.seq[user] = append(s.seq[user], a.ID)
	s.mu.Unlock()
	s.cur.Add(-1)
	return nil
}

func (s *orderSink) sequence(user string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.seq[user]...)
}

// submitAll drives one user's alerts through Submit in order, retrying
// overloads; IDs are "a-<user>-<seq>".
func submitAll(t testing.TB, h *Hub, clk clock.Clock, user string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := portalAlert(i, clk.Now())
		a.ID = fmt.Sprintf("a-%s-%d", user, i)
		for {
			err := h.Submit(user, a)
			var over *OverloadError
			if errors.As(err, &over) {
				time.Sleep(over.RetryAfter)
				continue
			}
			if err != nil {
				t.Errorf("submit %s/%d: %v", user, i, err)
			}
			break
		}
	}
}

// TestHubPerUserFIFOUnderAsyncDelivery is the ordering property test:
// interleaved alerts for many users flow through a randomly-delayed
// sink, and each user's deliveries must still arrive in submission
// order while different users' deliveries overlap.
func TestHubPerUserFIFOUnderAsyncDelivery(t *testing.T) {
	const users, perUser = 40, 25
	clk := clock.NewReal()
	sink := newOrderSink(dist.NewRNG(11), 4, 300)
	h := newTestHub(t, Config{Clock: clk, Channels: sinkChannels(sink.Deliver), Shards: 4, queueDepth: 1024})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			submitAll(t, h, clk, fmt.Sprintf("user-%d", u), perUser)
		}(u)
	}
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		got := sink.sequence(user)
		if len(got) != perUser {
			t.Fatalf("%s delivered %d alerts, want %d", user, len(got), perUser)
		}
		for i, id := range got {
			if want := fmt.Sprintf("a-%s-%d", user, i); id != want {
				t.Fatalf("%s delivery %d = %s, want %s (FIFO violated: %v)", user, i, id, want, got)
			}
		}
	}
	// The point of the pipeline: deliveries for different users overlap.
	if peak := sink.peak.Load(); peak < 2 {
		t.Fatalf("peak concurrent deliveries = %d; async stage never overlapped", peak)
	}
	st := h.Stats()
	for _, sh := range st.Shards {
		if sh.InFlight != 0 {
			t.Fatalf("shard %d in-flight %d after drain", sh.Shard, sh.InFlight)
		}
	}
	stages := h.Stages()
	if stages.Deliver.Count != users*perUser {
		t.Fatalf("deliver-stage samples = %d, want %d", stages.Deliver.Count, users*perUser)
	}
	if stages.QueueWait.Count == 0 || stages.Route.Count == 0 {
		t.Fatal("queue-wait / route stage recorders empty")
	}
}

// TestHubDeliveryRetriesTransientFailures checks the retry/backoff
// path: a sink failing the first two attempts per alert still delivers
// every alert, and the hub counts the retries.
func TestHubDeliveryRetriesTransientFailures(t *testing.T) {
	const alerts = 5
	clk := clock.NewReal()
	var mu sync.Mutex
	attempts := make(map[string]int)
	sink := sinkChannels(func(shard int, user string, a *alert.Alert) error {
		mu.Lock()
		defer mu.Unlock()
		attempts[a.ID]++
		if attempts[a.ID] <= 2 {
			return fmt.Errorf("transient failure %d", attempts[a.ID])
		}
		return nil
	})
	h := newTestHub(t, Config{
		Clock: clk, Channels: sink, Shards: 1,
		deliveryMaxAttempts: 4,
		deliveryBackoff:     100 * time.Microsecond,
		deliveryBackoffCap:  time.Millisecond,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	submitAll(t, h, clk, "user-0", alerts)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h.Counters().Get("delivered"); got != alerts {
		t.Fatalf("delivered = %d, want %d", got, alerts)
	}
	if got := h.Counters().Get("delivery-retries"); got != 2*alerts {
		t.Fatalf("delivery-retries = %d, want %d", got, 2*alerts)
	}
	if got := h.Counters().Get("undeliverable"); got != 0 {
		t.Fatalf("undeliverable = %d, want 0", got)
	}
	if un := h.wal.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed after drain", len(un))
	}
}

// TestHubDeliveryExhaustsRetriesThenMarks checks that a permanently
// failing delivery gives up after deliveryMaxAttempts, counts as
// undeliverable, and is still marked processed — the hub must not
// replay a poison alert forever.
func TestHubDeliveryExhaustsRetriesThenMarks(t *testing.T) {
	const alerts = 3
	clk := clock.NewReal()
	var calls atomic.Int64
	sink := sinkChannels(func(shard int, user string, a *alert.Alert) error {
		calls.Add(1)
		return errors.New("substrate down")
	})
	h := newTestHub(t, Config{
		Clock: clk, Channels: sink, Shards: 1,
		deliveryMaxAttempts: 3,
		deliveryBackoff:     100 * time.Microsecond,
		deliveryBackoffCap:  time.Millisecond,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	submitAll(t, h, clk, "user-0", alerts)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3*alerts {
		t.Fatalf("sink calls = %d, want %d (3 attempts per alert)", got, 3*alerts)
	}
	if got := h.Counters().Get("undeliverable"); got != alerts {
		t.Fatalf("undeliverable = %d, want %d", got, alerts)
	}
	if got := h.Counters().Get("delivered"); got != 0 {
		t.Fatalf("delivered = %d, want 0", got)
	}
	if un := h.wal.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed after drain — undeliverable alerts must not replay forever", len(un))
	}
}

// TestHubDeliveryWindowBounds checks the in-flight window: with
// deliveryWindow=2 on one shard, the sink never observes more than two
// concurrent deliveries even with twenty users' worth of parallelism
// available, and the stage reaches the bound.
func TestHubDeliveryWindowBounds(t *testing.T) {
	const users, perUser, window = 20, 3, 2
	clk := clock.NewReal()
	var cur, peak atomic.Int64
	slow := sinkChannels(func(shard int, user string, a *alert.Alert) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	h := newTestHub(t, Config{
		Clock: clk, Channels: slow, Shards: 1, queueDepth: 256,
		deliveryWindow: window,
	})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			submitAll(t, h, clk, fmt.Sprintf("user-%d", u), perUser)
		}(u)
	}
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > window {
		t.Fatalf("peak concurrent deliveries = %d, window is %d", p, window)
	}
	st := h.Stats()
	if st.Shards[0].PeakInFlight > window {
		t.Fatalf("shard peak in-flight gauge = %d, window is %d", st.Shards[0].PeakInFlight, window)
	}
	if st.Shards[0].PeakInFlight < window {
		t.Fatalf("shard peak in-flight gauge = %d, never saturated window %d", st.Shards[0].PeakInFlight, window)
	}
}
