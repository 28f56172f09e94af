package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dmode"
	"simba/internal/im"
	"simba/internal/timewheel"
)

// ackFixture is an executor over a scripted IM channel and a counting
// email channel, one user registry and the IM-then-email mode.
type ackFixture struct {
	acks   *Acks
	exec   *Executor
	reg    *addr.Registry
	mode   *dmode.Mode
	emails atomic.Int64
}

func newAckFixture(t *testing.T, imTimeout time.Duration, sendIM func(f *ackFixture, req Send) (SendResult, error)) *ackFixture {
	t.Helper()
	clk := clock.NewReal()
	f := &ackFixture{acks: NewAcks(clk), mode: dmode.IMThenEmail("Pager IM", "Work email", imTimeout)}
	chans := NewChannels().
		Register(addr.TypeIM, ChannelFunc(func(req Send) (SendResult, error) { return sendIM(f, req) })).
		Register(addr.TypeEmail, ChannelFunc(func(Send) (SendResult, error) {
			f.emails.Add(1)
			return SendResult{Confirmed: true}, nil
		}))
	var err error
	if f.exec, err = NewExecutor(clk, chans, f.acks); err != nil {
		t.Fatal(err)
	}
	f.reg = addr.NewRegistry("user")
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "Pager IM", Target: "user@im", Enabled: true},
		{Type: addr.TypeEmail, Name: "Work email", Target: "user@mail", Enabled: true},
	} {
		if err := f.reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func ackTestAlert(i int) *alert.Alert {
	return &alert.Alert{
		ID: alert.NextID("ack"), Source: "portal", Keywords: []string{"stocks"},
		Subject: "quote", Body: "MSFT moved", Urgency: alert.UrgencyNormal,
		Created: time.Unix(int64(i), 1),
	}
}

// TestAckBeforeRegisterIsNotLost is the deterministic form of the
// Send/register race: the IM channel hands the user's acknowledgement
// to HandleIncoming before Send has even returned the sequence number
// the executor needs to register its wait. Every alert must still be
// delivered by IM, with no fallback email — on the scratch-less buddy
// path and on the pooled path alike.
func TestAckBeforeRegisterIsNotLost(t *testing.T) {
	for name, scr := range map[string]*Scratch{
		"buddy":  nil,
		"pooled": NewScratch(timewheel.New(clock.NewReal(), timewheel.Options{})),
	} {
		t.Run(name, func(t *testing.T) {
			var seq uint64
			f := newAckFixture(t, 50*time.Millisecond, func(f *ackFixture, req Send) (SendResult, error) {
				seq++
				if !f.acks.HandleIncoming(im.Message{From: req.To, Text: AckText(seq)}) {
					t.Error("acknowledgement not consumed")
				}
				return SendResult{Seq: seq}, nil
			})
			const alerts = 200
			for i := 0; i < alerts; i++ {
				rep, err := f.exec.DeliverScratch(DeliveryContext{User: "user"}, ackTestAlert(i), "", nil, f.reg, f.mode, scr)
				if err != nil || rep.DeliveredVia != "Pager IM" {
					t.Fatalf("alert %d delivered via %q (err %v), want the IM", i, rep.DeliveredVia, err)
				}
				if rep.Blocks[0].Actions[0].AckedAt.IsZero() {
					t.Fatalf("alert %d: IM action not marked acked", i)
				}
			}
			if n := f.emails.Load(); n != 0 {
				t.Fatalf("%d fallback emails followed acknowledged IMs, want 0", n)
			}
			if n := f.acks.Strays(); n != 0 {
				t.Fatalf("%d acks counted as strays, want 0 (each was claimed by its registration)", n)
			}
			if n := f.acks.Pending(); n != 0 {
				t.Fatalf("%d pending acks leaked", n)
			}
		})
	}
}

// TestPooledAckWaiterNoCrossTalk hammers the one hazard of reusing a
// waiter: a late acknowledgement for wait n racing the scratch's
// reuse for wait n+1. One scratch runs waits back to back on a block of
// two IM actions; four goroutines acknowledge BOTH sends of every
// odd-numbered wait, over and over, so the second ack routinely arrives
// after the first has already succeeded the block — between the
// wake-up and the cancel, or after it. An even-numbered wait is never
// acknowledged: one that succeeds consumed an arrival meant for its
// predecessor.
func TestPooledAckWaiterNoCrossTalk(t *testing.T) {
	var round atomic.Uint64 // number of the wait in progress, from 1
	f := newAckFixture(t, 300*time.Microsecond, func(f *ackFixture, req Send) (SendResult, error) {
		if req.To == "user@im" {
			return SendResult{Seq: 2 * round.Add(1)}, nil
		}
		return SendResult{Seq: 2*round.Load() + 1}, nil
	})
	if err := f.reg.Register(addr.Address{Type: addr.TypeIM, Name: "Desk IM", Target: "desk@im", Enabled: true}); err != nil {
		t.Fatal(err)
	}
	f.mode.Blocks[0].Actions = append(f.mode.Blocks[0].Actions, dmode.Action{Address: "Desk IM"})
	scr := NewScratch(timewheel.New(clock.NewReal(), timewheel.Options{}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := round.Load()
				if r%2 == 0 {
					runtime.Gosched()
					continue
				}
				f.acks.HandleIncoming(im.Message{From: "user@im", Text: AckText(2 * r)})
				f.acks.HandleIncoming(im.Message{From: "desk@im", Text: AckText(2*r + 1)})
			}
		}()
	}
	const waits = 2000
	acked := 0
	for i := 1; i <= waits; i++ {
		rep, err := f.exec.DeliverScratch(DeliveryContext{User: "user"}, ackTestAlert(i), "", nil, f.reg, f.mode, scr)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if rep.Blocks[0].Succeeded {
			acked++
			if i%2 == 0 {
				t.Fatalf("wait %d was never acknowledged, yet its IM block succeeded: "+
					"it consumed a late ack for wait %d", i, i-1)
			}
		}
	}
	close(stop)
	wg.Wait()
	if acked < waits/4 {
		t.Fatalf("only %d of %d odd waits were acknowledged: the hammer is not exercising the race", acked, waits/2)
	}
}

// TestCancelHandsBackUnreadArrival pins the rule that closes the
// timeout/ack tie: an acknowledgement that found its key registered is
// either the one that resumed the waiter or handed back by cancel — the
// block then succeeds on it — and either way the waiter is clear for its
// next wait.
func TestCancelHandsBackUnreadArrival(t *testing.T) {
	acks := NewAcks(clock.NewReal())
	w := &waiter{}
	keys := []ackKey{{handle: "user@im", seq: 1}, {handle: "desk@im", seq: 2}}
	acks.register(keys[0], pendingAck{w: w, name: "Pager IM"}, time.Time{})
	acks.register(keys[1], pendingAck{w: w, name: "Desk IM"}, time.Time{})
	// Both acks land after the timeout already resumed the block.
	acks.expire(w)
	acks.HandleIncoming(im.Message{From: "user@im", Text: AckText(1)})
	acks.HandleIncoming(im.Message{From: "desk@im", Text: AckText(2)})
	arr, ok := acks.cancel(keys, w)
	if !ok || arr.name != "Pager IM" {
		t.Fatalf("cancel = (%+v, %v), want the first arrival handed back", arr, ok)
	}
	if w.acked || w.expired || w.parked || acks.Pending() != 0 || acks.Strays() != 0 {
		t.Fatalf("after cancel: waiter %+v, %d pending, %d strays; want all clear", *w, acks.Pending(), acks.Strays())
	}
	if _, ok := acks.cancel(keys, w); ok {
		t.Fatal("a second cancel found another arrival")
	}
}

// wakeFunc is a func as a host's Waker.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }

// TestAckAndTimeoutResumeOnce lands an acknowledgement and the timeout
// on the same parked block and requires the park to be resumed exactly
// once. The waits cycle through four shapes: ack then timeout, timeout
// then ack, both released together from a barrier on two goroutines —
// the timeout fired as the wheel fires it — and the wheel's real timer
// against an ack sent as it falls due. An ack that found its key
// registered succeeds the block whichever came first, and nothing may
// stay registered or armed afterwards.
func TestAckAndTimeoutResumeOnce(t *testing.T) {
	const waits, timeout = 64, 200 * time.Microsecond
	var seq atomic.Uint64
	f := newAckFixture(t, timeout, func(f *ackFixture, req Send) (SendResult, error) {
		return SendResult{Seq: seq.Add(1)}, nil
	})
	wheel := timewheel.New(clock.NewReal(), timewheel.Options{})
	scr := NewScratch(wheel)
	var wakes atomic.Int64
	woke := make(chan struct{}, 2*waits) // room for every wake a broken park could send
	wake := wakeFunc(func() { wakes.Add(1); woke <- struct{}{} })
	held := *f.mode // the three shapes that fire the timeout themselves hold the wheel's off
	held.Blocks = append([]dmode.Block{{Timeout: dmode.Duration(time.Hour), Actions: held.Blocks[0].Actions}}, held.Blocks[1:]...)
	byIM, parks := 0, int64(0)
	for i := 0; i < waits; i++ {
		shape, mode := i%4, &held
		if shape == 3 {
			mode = f.mode
		}
		if err := f.exec.Begin(DeliveryContext{User: "user"}, ackTestAlert(i), "", nil, f.reg, mode, scr, wake); err != nil {
			t.Fatal(err)
		}
		if !f.exec.Step(scr) {
			if shape != 3 {
				t.Fatalf("wait %d: the IM block did not park", i)
			}
			continue // the real timer fired before the block could park
		}
		parks++
		ack := func() { f.acks.HandleIncoming(im.Message{From: "user@im", Text: AckText(seq.Load())}) }
		expire := func() { f.acks.expire(&scr.w) }
		var both sync.WaitGroup
		run := func(fs ...func()) {
			both.Add(1)
			go func() {
				defer both.Done()
				for _, f := range fs {
					f()
				}
			}()
		}
		start := make(chan struct{})
		barrier := func() { <-start }
		switch shape {
		case 0:
			run(ack, expire)
		case 1:
			run(expire, ack)
		case 2:
			run(barrier, ack)
			run(barrier, expire)
		case 3:
			run(func() { time.Sleep(timeout) }, ack)
		}
		close(start)
		<-woke
		both.Wait()
		if shape != 3 {
			// Both have come and gone: one wake, not two.
			if n := wakes.Load(); n != parks {
				t.Fatalf("wait %d (shape %d): the ack and the timeout resumed the park %d times", i, shape, n-parks+1)
			}
		}
		if f.exec.Step(scr) {
			t.Fatalf("wait %d: the email block parked", i)
		}
		rep, err := scr.Result()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if rep.DeliveredVia == "Pager IM" {
			byIM++
		} else if shape != 3 {
			t.Fatalf("wait %d (shape %d): a registered ack lost to the timeout: delivered via %q", i, shape, rep.DeliveredVia)
		}
	}
	t.Logf("%d of %d blocks acked, the rest timed out; %d parked", byIM, waits, parks)
	time.Sleep(10 * timeout) // a second resume, if any, lands by now
	if n := wakes.Load(); n != parks {
		t.Fatalf("%d parks resumed %d times", parks, n)
	}
	if f.acks.Pending() != 0 || wheel.Pending() != 0 {
		t.Fatalf("%d acks registered, %d timeouts armed after every block ended", f.acks.Pending(), wheel.Pending())
	}
}
