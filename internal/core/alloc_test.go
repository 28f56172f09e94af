package core

import (
	"errors"
	"fmt"
	"reflect"
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
// result backing, and ack keys living in a reusable Scratch, a
// confirm-on-send delivery must not touch the heap. The flat row runs
// in the Scratch's inline arrays; the past-inline row walks three
// blocks of three actions, two blocks failing on a channel error, so
// its report spills to the heap at the first delivery and must reuse
// what it grew after that.
func TestDeliverScratchZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	clk := clock.NewReal()
	errDown := errors.New("relay down")
	chans := NewChannels().
		Register(addr.TypeSink, ChannelFunc(func(req Send) (SendResult, error) {
			return SendResult{Confirmed: true}, nil
		})).
		Register(addr.TypeEmail, ChannelFunc(func(Send) (SendResult, error) {
			return SendResult{}, errDown
		}))
	exec, err := NewExecutor(clk, chans, NewAcks(clk))
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("alloc-test")
	for _, a := range []addr.Address{
		{Type: addr.TypeSink, Name: "substrate", Target: "substrate", Enabled: true},
		{Type: addr.TypeEmail, Name: "relay", Target: "user@mail", Enabled: true},
	} {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	block := func(address string) dmode.Block {
		return dmode.Block{Actions: []dmode.Action{{Address: address}, {Address: address}, {Address: address}}}
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
	for _, row := range []struct {
		name string
		mode *dmode.Mode
	}{
		{"flat", &dmode.Mode{Name: "Flat", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "substrate"}}}}}},
		{"past inline", &dmode.Mode{Name: "Wide", Blocks: []dmode.Block{block("relay"), block("relay"), block("substrate")}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			scr := NewScratch(nil)
			// Warm once so lazily grown scratch backing reaches steady state.
			if _, err := exec.DeliverScratch(ctx, a, key, payload, reg, row.mode, scr); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				rep, err := exec.DeliverScratch(ctx, a, key, payload, reg, row.mode, scr)
				if err != nil || !rep.Delivered || len(rep.Blocks) != len(row.mode.Blocks) {
					t.Fatalf("delivery failed: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("DeliverScratch allocates %.1f objects per delivery, want 0", allocs)
			}
		})
	}
}

// TestDeliverScratchIMAckZeroAllocs pins the pooled mode-delivery path
// at zero steady-state allocations where it used to be the hub's
// biggest garbage source: an IM block whose acknowledgement arrives
// while the executor waits for it, and an IM block that times out
// (per-delivery default timeout, sentinel ErrNoAck) into a confirmed
// email block. The wait channel, the pending-ack entry and the timeout
// Timer all come from the scratch.
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
	deliver(acked, "Pager IM") // warm: scratch backing, wait channel, wheel driver
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

// TestScratchInlineBoundary runs one Scratch across the edge of its
// inline arrays: deliveries cycle through a two-block mode of two
// actions each, which fits them, a three-block mode of three actions
// each (three ack keys in its last block), which spills the report's
// blocks, actions and keys to the heap, and a one-block flat mode, with
// the IM channel up and then down; each delivery is retried once
// through Rewind. Every report, and the error on total failure, must
// equal a fresh DeliverAs of the same alert field by field, and name
// its mode's addresses in order. A block whose inline actions alias
// another block's, or a spill that loses what the inline arrays held,
// shows as a report that differs.
func TestScratchInlineBoundary(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	acks := NewAcks(sim)
	errDown := errors.New("relay down")
	var imDown bool
	chans := NewChannels().
		Register(addr.TypeSink, ChannelFunc(func(Send) (SendResult, error) {
			return SendResult{Confirmed: true}, nil
		})).
		Register(addr.TypeEmail, ChannelFunc(func(Send) (SendResult, error) {
			return SendResult{}, errDown
		})).
		Register(addr.TypeIM, ChannelFunc(func(req Send) (SendResult, error) {
			if imDown {
				return SendResult{}, errDown
			}
			// The ack beats the registration, which claims it: no park.
			acks.HandleIncoming(im.Message{From: req.To, Text: AckText(7)})
			return SendResult{Seq: 7}, nil
		}))
	exec, err := NewExecutor(sim, chans, acks)
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("boundary")
	for _, a := range []addr.Address{
		{Type: addr.TypeSink, Name: "sink", Target: "sink", Enabled: true},
		{Type: addr.TypeSink, Name: "off", Target: "off"},
		{Type: addr.TypeEmail, Name: "relay", Target: "user@mail", Enabled: true},
		{Type: addr.TypeIM, Name: "im-a", Target: "a@im", Enabled: true},
		{Type: addr.TypeIM, Name: "im-b", Target: "b@im", Enabled: true},
		{Type: addr.TypeIM, Name: "im-c", Target: "c@im", Enabled: true},
	} {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	block := func(names ...string) dmode.Block {
		b := dmode.Block{Timeout: dmode.Duration(time.Second)}
		for _, n := range names {
			b.Actions = append(b.Actions, dmode.Action{Address: n})
		}
		return b
	}
	modes := []*dmode.Mode{
		{Name: "Pair", Blocks: []dmode.Block{block("relay", "ghost"), block("im-a", "im-b")}},
		{Name: "Wide", Blocks: []dmode.Block{block("relay", "ghost", "off"), block("off", "relay", "relay"), block("im-a", "im-b", "im-c")}},
		{Name: "Flat", Blocks: []dmode.Block{block("sink")}},
	}
	scr := NewScratch(nil)
	ctx := DeliveryContext{User: "user"}
	for i := range 4 * len(modes) {
		mode, a := modes[i%len(modes)], ackTestAlert(i)
		imDown = i/len(modes)%2 == 1
		want, wantErr := exec.DeliverAs(ctx, a, reg, mode)
		if err := exec.Begin(ctx, a, "", nil, reg, mode, scr, nil); err != nil {
			t.Fatal(err)
		}
		for attempt := range 2 {
			if attempt > 0 {
				scr.Rewind()
			}
			if exec.Step(scr) {
				t.Fatalf("delivery %d (%s) parked", i, mode.Name)
			}
			got, gotErr := scr.Result()
			what := fmt.Sprintf("delivery %d (%s, IM down %v) attempt %d", i, mode.Name, imDown, attempt)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, fresh %v", what, gotErr, wantErr)
			}
			sameReport(t, what, got, want)
			for _, br := range got.Blocks {
				for j, res := range br.Actions {
					if name := mode.Blocks[br.Index].Actions[j].Address; res.AddressName != name {
						t.Fatalf("%s: block %d action %d reports %q, the mode names %q", what, br.Index, j, res.AddressName, name)
					}
				}
			}
		}
	}
}

// sameReport fails t unless got and want agree field by field, errors
// by their text.
func sameReport(t *testing.T, what string, got, want *Report) {
	t.Helper()
	g, w := *got, *want
	g.Blocks, w.Blocks = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: report %+v, fresh %+v", what, g, w)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d blocks, fresh %d", what, len(got.Blocks), len(want.Blocks))
	}
	for i, gb := range got.Blocks {
		wb := want.Blocks[i]
		if gb.Index != wb.Index || gb.Succeeded != wb.Succeeded || gb.Elapsed != wb.Elapsed || len(gb.Actions) != len(wb.Actions) {
			t.Fatalf("%s: block %d is %+v, fresh %+v", what, i, gb, wb)
		}
		for j, ga := range gb.Actions {
			wa := wb.Actions[j]
			if fmt.Sprint(ga.Err) != fmt.Sprint(wa.Err) {
				t.Fatalf("%s: block %d action %d error %v, fresh %v", what, i, j, ga.Err, wa.Err)
			}
			ga.Err, wa.Err = nil, nil
			if ga != wa {
				t.Fatalf("%s: block %d action %d is %+v, fresh %+v", what, i, j, ga, wa)
			}
		}
	}
}
