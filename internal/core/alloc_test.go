package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dmode"
	"simba/internal/im"
	"simba/internal/race"
	"simba/internal/timewheel"
)

// TestDeliverScratchZeroAllocs pins the pooled delivery hot path at
// zero steady-state allocations: with the alert key and wire payload
// precomputed (as the hub's delivery stage does) and the report,
// result backing, and ack keys living in a reusable Scratch, a flat
// confirm-on-send delivery must not touch the heap.
func TestDeliverScratchZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	clk := clock.NewReal()
	chans := NewChannels().Register(addr.TypeSink, ChannelFunc(func(req Send) (SendResult, error) {
		return SendResult{Confirmed: true}, nil
	}))
	exec, err := NewExecutor(clk, chans, NewAcks(clk))
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("alloc-test")
	if err := reg.Register(addr.Address{
		Type: addr.TypeSink, Name: "substrate", Target: "substrate", Enabled: true,
	}); err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{
		Name:   "Flat",
		Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "substrate"}}}},
	}
	a := &alert.Alert{
		ID: "a-1", Source: "portal", Keywords: []string{"stocks"},
		Subject: "quote", Body: "MSFT moved", Urgency: alert.UrgencyNormal,
		Created: time.Unix(0, 1),
	}
	payload, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	key := a.DedupKey()
	ctx := DeliveryContext{User: "user-1", Shard: 0}
	scr := NewScratch(nil)

	// Warm once so lazily grown scratch backing reaches steady state.
	if _, err := exec.DeliverScratch(ctx, a, key, payload, reg, mode, scr); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rep, err := exec.DeliverScratch(ctx, a, key, payload, reg, mode, scr)
		if err != nil || !rep.Delivered {
			t.Fatalf("delivery failed: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DeliverScratch allocates %.1f objects per delivery, want 0", allocs)
	}
}

// TestDeliverScratchIMAckZeroAllocs pins the pooled mode-delivery path
// at zero steady-state allocations where it used to be the hub's
// biggest garbage source: an IM block whose acknowledgement arrives
// while the executor waits for it, and an IM block that times out
// (per-delivery default timeout, sentinel ErrNoAck) into a confirmed
// email block. The wait channel, the pending-ack entry and the wheel
// node all come from the scratch.
func TestDeliverScratchIMAckZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	clk := clock.NewReal()
	acks := NewAcks(clk)
	var acking, emailDown atomic.Bool
	errEmailDown := errors.New("smtp relay down")
	sent := make(chan struct{}, 1)
	chans := NewChannels().
		Register(addr.TypeIM, ChannelFunc(func(Send) (SendResult, error) {
			if acking.Load() {
				sent <- struct{}{}
			}
			return SendResult{Seq: 7}, nil
		})).
		Register(addr.TypeEmail, ChannelFunc(func(Send) (SendResult, error) {
			if emailDown.Load() {
				return SendResult{}, errEmailDown
			}
			return SendResult{Confirmed: true}, nil
		}))
	exec, err := NewExecutor(clk, chans, acks)
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("alloc-test")
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "Pager IM", Target: "user@im", Enabled: true},
		{Type: addr.TypeEmail, Name: "Work email", Target: "user@mail", Enabled: true},
	} {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	mode := dmode.IMThenEmail("Pager IM", "Work email", 0)
	a := &alert.Alert{
		ID: "a-1", Source: "portal", Keywords: []string{"stocks"},
		Subject: "quote", Body: "MSFT moved", Urgency: alert.UrgencyNormal,
		Created: time.Unix(0, 1),
	}
	payload, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	key := a.DedupKey()
	scr := NewScratch(timewheel.New(clk, timewheel.Options{}))

	// The IM user: acknowledges each send once the executor has
	// registered its wait. The message is built once — the acker must
	// not allocate either, AllocsPerRun counts the whole process.
	ack := im.Message{From: "user@im", Text: AckText(7)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range sent {
			for acks.Pending() == 0 {
				runtime.Gosched()
			}
			acks.HandleIncoming(ack)
		}
	}()

	deliver := func(ctx DeliveryContext, via string) {
		rep, err := exec.DeliverScratch(ctx, a, key, payload, reg, mode, scr)
		if err != nil || rep.DeliveredVia != via {
			t.Fatalf("delivered via %q (err %v), want %q", rep.DeliveredVia, err, via)
		}
	}
	acked := DeliveryContext{User: "user", BlockTimeout: 10 * time.Second}
	acking.Store(true)
	deliver(acked, "Pager IM") // warm: scratch backing, wait channel, wheel node
	if n := testing.AllocsPerRun(100, func() { deliver(acked, "Pager IM") }); n != 0 {
		t.Errorf("acked IM delivery allocates %.1f objects, want 0", n)
	}
	acking.Store(false)
	close(sent)
	wg.Wait()

	silent := DeliveryContext{User: "user", BlockTimeout: time.Millisecond}
	deliver(silent, "Work email")
	if n := testing.AllocsPerRun(20, func() { deliver(silent, "Work email") }); n != 0 {
		t.Errorf("IM timeout + email fallback allocates %.1f objects, want 0", n)
	}
	if got := scr.rep.Blocks[0].Actions[0].Err; got != ErrNoAck {
		t.Errorf("timed-out action error = %v, want ErrNoAck", got)
	}

	// Total failure: the error is borrowed from the scratch and formats
	// its summary only when asked.
	emailDown.Store(true)
	var failed error
	if n := testing.AllocsPerRun(20, func() {
		_, failed = exec.DeliverScratch(silent, a, key, payload, reg, mode, scr)
	}); n != 0 {
		t.Errorf("failed delivery allocates %.1f objects, want 0", n)
	}
	if !errors.Is(failed, ErrAllBlocksFailed) {
		t.Fatalf("failed delivery error = %v, want ErrAllBlocksFailed", failed)
	}
	for _, want := range []string{"a-1", "IMThenEmail", ErrNoAck.Error(), errEmailDown.Error()} {
		if !strings.Contains(failed.Error(), want) {
			t.Errorf("error %q does not mention %q", failed, want)
		}
	}
}

// TestAckTextAllocBudget: an ack built and handed straight to
// HandleIncoming — the shape of every IM user's ack path — costs
// nothing: HandleIncoming keeps no reference to the message, so the
// text lives on the caller's stack.
func TestAckTextAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	acks := NewAcks(clock.NewReal())
	w := &waiter{}
	keys := make([]ackKey, 1)
	seq := uint64(1 << 40)
	if n := testing.AllocsPerRun(100, func() {
		seq++
		keys[0] = ackKey{handle: "user@im", seq: seq}
		acks.register(keys[0], pendingAck{w: w, name: "Pager IM"}, time.Time{})
		acks.HandleIncoming(im.Message{From: "user@im", Text: AckText(seq)})
		if _, acked := acks.cancel(keys, w); !acked {
			t.Fatalf("ack %d matched no wait", seq)
		}
	}); n != 0 {
		t.Fatalf("HandleIncoming(AckText(n)) allocates %.2f times, want 0", n)
	}
	if got, ok := ParseAck(AckText(seq)); !ok || got != seq {
		t.Fatalf("ParseAck(AckText(%d)) = %d, %v", seq, got, ok)
	}
}
