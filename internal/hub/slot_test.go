package hub

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/im"
	"simba/internal/metrics"
)

// imSend is one IM the test's channel accepted and has not acked.
type imSend struct {
	handle string
	seq    uint64
}

// hostModeUsers gives tenants user-0..n-1 an IM-then-email profile
// (block timeout blockTimeout; zero takes the hub's AckTimeout) and
// subscribes them to it.
func hostModeUsers(t *testing.T, h *Hub, n int, blockTimeout time.Duration) {
	t.Helper()
	addUsers(t, h, n)
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("user-%d", i)
		b, _ := h.buddy(user)
		b.SetProfile(modeProfile(t, user, blockTimeout))
		if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParkedAckWaitHoldsNoWorker pins what a worker covers: with
// deliveryWindow 1 — one worker — and every IM acknowledgement withheld,
// the second tenant's IM is still sent while the first delivery waits
// for its ack, and once both wait, the one worker is idle: a parked
// delivery holds no worker and no in-flight slot, only its Acks entry
// and its armed timeout. No two Sends ever overlap.
func TestParkedAckWaitHoldsNoWorker(t *testing.T) {
	const users = 2
	var sending metrics.Gauge // what the delivery window bounds: channel Sends running at once
	var seq atomic.Uint64
	sends := make(chan imSend, users)
	var emails atomic.Int64
	chans := core.NewChannels().
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			sending.Inc()
			time.Sleep(time.Millisecond) // long enough for an overlap to show
			sending.Dec()
			s := seq.Add(1)
			sends <- imSend{handle: req.To, seq: s}
			return core.SendResult{Seq: s}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			emails.Add(1)
			return core.SendResult{Confirmed: true}, nil
		}))
	h := newTestHub(t, Config{Channels: chans, Shards: 1, deliveryWindow: 1, AckTimeout: 30 * time.Second})
	hostModeUsers(t, h, users, 0)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := h.Submit(fmt.Sprintf("user-%d", i), portalAlert(i, h.cfg.Clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	// Both IMs go out although neither has been acknowledged.
	var unacked []imSend
	for len(unacked) < users {
		select {
		case s := <-sends:
			unacked = append(unacked, s)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d IMs sent: the worker is held across the ack wait", len(unacked), users)
		}
	}
	// ...and once both deliveries have parked, the one worker is free.
	d := h.shards[0].current()
	waitCond(t, "both deliveries to park with the worker idle", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return h.Executor().Acks().Pending() == users && d.wheel.Pending() == users &&
			h.shards[0].inflight.Load() == 0 && d.busy.Load() == 0 && d.live.Load() == 1
	})
	if spawned := spawnedWorkers(h); spawned != 1 {
		t.Fatalf("%d workers spawned with deliveryWindow 1", spawned)
	}
	for _, s := range unacked {
		h.HandleIncoming(im.Message{From: s.handle, Text: core.AckText(s.seq)})
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if p := sending.Peak(); p != 1 {
		t.Fatalf("peak concurrent Sends = %d, window is 1", p)
	}
	st := h.Stats()
	if st.Shards[0].PeakInFlight != 1 {
		t.Fatalf("peak in-flight gauge = %d, window is 1", st.Shards[0].PeakInFlight)
	}
	if got := st.DeliveredByChannel[addr.TypeIM]; got != users || emails.Load() != 0 {
		t.Fatalf("%d delivered by IM and %d emails, want %d and 0", got, emails.Load(), users)
	}
}

// TestParkedBackoffHoldsNoWorker is the same for the retry backoff:
// with deliveryWindow 1, a tenant whose first attempt failed waits out
// its backoff parked on the wheel, so the one worker delivers another
// tenant's alert in between the two attempts.
func TestParkedBackoffHoldsNoWorker(t *testing.T) {
	var sending metrics.Gauge // what the delivery window bounds: channel Sends running at once
	var mu sync.Mutex
	var order []string
	failed := make(chan struct{})
	sink := sinkChannels(func(_ int, user string, _ *alert.Alert) error {
		sending.Inc()
		defer sending.Dec()
		mu.Lock()
		defer mu.Unlock()
		order = append(order, user)
		if user == "user-0" && len(order) == 1 {
			close(failed)
			return errors.New("substrate hiccup")
		}
		return nil
	})
	h := newTestHub(t, Config{
		Channels: sink, Shards: 1, deliveryWindow: 1,
		// Jittered into [250ms, 500ms): ample for user-1's delivery.
		deliveryBackoff: 500 * time.Millisecond, deliveryBackoffCap: 500 * time.Millisecond,
	})
	addUsers(t, h, 2)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("user-0", portalAlert(0, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(10 * time.Second):
		t.Fatal("user-0's first attempt never ran")
	}
	if err := h.Submit("user-1", portalAlert(1, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"user-0", "user-1", "user-0"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("send order %v, want %v (user-1 delivered during user-0's backoff)", order, want)
	}
	if spawned := spawnedWorkers(h); spawned != 1 {
		t.Fatalf("%d workers spawned with deliveryWindow 1", spawned)
	}
	if p := sending.Peak(); p != 1 {
		t.Fatalf("peak concurrent Sends = %d, window is 1", p)
	}
}

// TestHubAckBeforeRegisterDeliversByIM is the hub-path form of the
// Send/register race (core.TestAckBeforeRegisterIsNotLost): the IM
// channel acknowledges through Hub.HandleIncoming before its Send
// returns. Every alert is delivered by IM and none is followed by its
// fallback email.
func TestHubAckBeforeRegisterDeliversByIM(t *testing.T) {
	const users, perUser = 8, 25
	var hb *Hub
	var seq atomic.Uint64
	var emails atomic.Int64
	chans := core.NewChannels().
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			s := seq.Add(1)
			hb.HandleIncoming(im.Message{From: req.To, Text: core.AckText(s)})
			return core.SendResult{Seq: s}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			emails.Add(1)
			return core.SendResult{Confirmed: true}, nil
		}))
	hb = newTestHub(t, Config{Channels: chans, Shards: 2, AckTimeout: 50 * time.Millisecond})
	hostModeUsers(t, hb, users, 0)
	if err := hb.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			submitAll(t, hb, hb.cfg.Clock, fmt.Sprintf("user-%d", u), perUser)
		}(u)
	}
	wg.Wait()
	if err := hb.Drain(); err != nil {
		t.Fatal(err)
	}
	st := hb.Stats()
	if got := st.DeliveredByChannel[addr.TypeIM]; got != users*perUser || emails.Load() != 0 {
		t.Fatalf("%d delivered by IM and %d fallback emails, want %d and 0", got, emails.Load(), users*perUser)
	}
	if n := hb.Executor().Acks().Strays(); n != 0 {
		t.Fatalf("%d acks counted as strays, want 0", n)
	}
}

// TestHubRedefineModeMidFlight pins the shared-plan rule: the hub
// executes the profile's stored mode itself, so a redefinition must
// swap the stored pointer and never edit the mode a parked delivery is
// walking. The delivery in flight finishes on the blocks it started
// with; the next one takes the new definition. A second phase
// redefines continuously under load so -race sees any in-place write.
func TestHubRedefineModeMidFlight(t *testing.T) {
	const blockTimeout = 100 * time.Millisecond
	imSent := make(chan string, 64)
	var mu sync.Mutex
	via := make(map[string][]string) // alert ID → target of every Send made for it
	record := func(confirmed bool) core.ChannelFunc {
		return func(req core.Send) (core.SendResult, error) {
			mu.Lock()
			via[req.Alert.ID] = append(via[req.Alert.ID], req.To)
			mu.Unlock()
			if !confirmed {
				imSent <- req.Alert.ID
			}
			return core.SendResult{Confirmed: confirmed, Seq: 1}, nil
		}
	}
	chans := core.NewChannels().
		Register(addr.TypeIM, record(false)). // never acknowledged
		Register(addr.TypeEmail, record(true))
	h := newTestHub(t, Config{Clock: clock.NewReal(), Channels: chans, Shards: 1})
	addUsers(t, h, 1)
	p := modeProfile(t, "user-0", blockTimeout)
	if err := p.Addresses().Register(addr.Address{
		Type: addr.TypeEmail, Name: "Home email", Target: "user-0@home", Enabled: true,
	}); err != nil {
		t.Fatal(err)
	}
	homeOnly := &dmode.Mode{Name: "IMThenEmail", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "Home email"}}}}}
	b, _ := h.buddy("user-0")
	b.SetProfile(p)
	if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}

	old, _ := p.SharedMode("IMThenEmail")
	before := old.Clone()
	if err := h.Submit("user-0", portalAlert(0, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	select {
	case <-imSent: // a-0 is parked in its IM ack wait, on the old mode
	case <-time.After(10 * time.Second):
		t.Fatal("first alert's IM was never sent")
	}
	if err := p.DefineMode(homeOnly); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("user-0", portalAlert(1, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Counters().Get("delivered") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 alerts delivered", h.Counters().Get("delivered"))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	got0, got1 := via["a-0"], via["a-1"]
	mu.Unlock()
	if want := []string{"user-0@im", "user-0@example.com"}; !reflect.DeepEqual(got0, want) {
		t.Errorf("in-flight alert sent to %v, want %v (the mode it started on)", got0, want)
	}
	if want := []string{"user-0@home"}; !reflect.DeepEqual(got1, want) {
		t.Errorf("later alert sent to %v, want %v (the redefined mode)", got1, want)
	}
	if cur, _ := p.SharedMode("IMThenEmail"); cur == old {
		t.Error("DefineMode kept the old stored mode")
	}
	if !reflect.DeepEqual(old, before) {
		t.Errorf("the replaced mode was edited in place: %+v, was %+v", old, before)
	}

	// Redefine continuously while deliveries run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defs := []*dmode.Mode{dmode.IMThenEmail("Pager IM", "Work email", time.Millisecond), homeOnly}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.DefineMode(defs[i%2]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	const more = 100
	for i := 2; i < 2+more; i++ {
		if err := h.Submit("user-0", portalAlert(i, h.cfg.Clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := 2; i < 2+more; i++ {
		got := via[fmt.Sprintf("a-%d", i)]
		a := reflect.DeepEqual(got, []string{"user-0@im", "user-0@example.com"})
		b := reflect.DeepEqual(got, []string{"user-0@home"})
		if !a && !b {
			t.Errorf("alert a-%d sent to %v: a mix of the two definitions", i, got)
		}
	}
}
