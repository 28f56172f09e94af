package hub

import (
	"errors"
	"fmt"
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
)

// Scripted fault schedule: what the IM channel does for one alert.
const (
	imAck    = "ack"    // send succeeds, ack arrives shortly after
	imSilent = "silent" // send succeeds, no ack ever (block times out)
	imError  = "error"  // send fails outright
)

// scriptedChannels builds an IM + email registry driven by a per-alert
// fault schedule. ack injects an acknowledgement for (handle, seq)
// into whichever ack table the side under test uses, after ackDelay.
func scriptedChannels(schedule map[string]string, ackDelay time.Duration, ack func(handle string, seq uint64), emails *deliveryLog) *core.Channels {
	var seq atomic.Uint64
	imCh := core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
		switch schedule[req.Alert.ID] {
		case imError:
			return core.SendResult{}, errors.New("im endpoint offline")
		case imAck:
			s := seq.Add(1)
			handle := req.To
			go func() {
				time.Sleep(ackDelay)
				ack(handle, s)
			}()
			return core.SendResult{Seq: s}, nil
		default:
			return core.SendResult{Seq: seq.Add(1)}, nil
		}
	})
	emCh := core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
		if emails != nil {
			emails.add(req.Alert.ID)
		}
		return core.SendResult{Confirmed: true}, nil
	})
	return core.NewChannels().
		Register(addr.TypeIM, imCh).
		Register(addr.TypeEmail, emCh)
}

// deliveryLog counts channel sends per alert ID.
type deliveryLog struct {
	mu     sync.Mutex
	counts map[string]int
}

func newDeliveryLog() *deliveryLog { return &deliveryLog{counts: make(map[string]int)} }

func (l *deliveryLog) add(id string) {
	l.mu.Lock()
	l.counts[id]++
	l.mu.Unlock()
}

func (l *deliveryLog) count(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[id]
}

// modeProfile builds a tenant profile with one IM and one email
// address and an "IM with acknowledgement, fallback email" mode whose
// first block times out after blockTimeout.
func modeProfile(t testing.TB, user string, blockTimeout time.Duration) *core.Profile {
	t.Helper()
	p, err := core.NewProfile(user)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "Pager IM", Target: user + "@im", Enabled: true},
		{Type: addr.TypeEmail, Name: "Work email", Target: user + "@example.com", Enabled: true},
	} {
		if err := p.Addresses().Register(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DefineMode(dmode.IMThenEmail("Pager IM", "Work email", blockTimeout)); err != nil {
		t.Fatal(err)
	}
	return p
}

// fallbackTrace is the observable shape of one delivery-mode
// execution: the per-block outcome sequence and the confirming
// channel. Two deliveries with equal traces made the same fallback
// decisions and landed on the same channel.
type fallbackTrace struct {
	blocks    string // e.g. "0:fail 1:ok"
	via       string
	viaType   addr.Type
	delivered bool
}

func traceOf(rep *core.Report) fallbackTrace {
	tr := fallbackTrace{via: rep.DeliveredVia, viaType: rep.DeliveredType(), delivered: rep.Delivered}
	for i, b := range rep.Blocks {
		if i > 0 {
			tr.blocks += " "
		}
		outcome := "fail"
		if b.Succeeded {
			outcome = "ok"
		}
		tr.blocks += fmt.Sprintf("%d:%s", b.Index, outcome)
	}
	return tr
}

// TestHubModeDeliveryMatchesBuddyExecutor is the differential property
// test: for the same profile, delivery mode, and per-alert fault
// schedule, a hub-hosted tenant's delivery stage must produce the same
// block-fallback sequence and final channel as the buddy path's direct
// executor run. It also pins the acceptance scenario: an
// "IM-with-ack, fallback email" tenant observably falls back to email
// inside the hub's delivery stage when the IM ack times out.
func TestHubModeDeliveryMatchesBuddyExecutor(t *testing.T) {
	const blockTimeout = 200 * time.Millisecond
	const ackDelay = 20 * time.Millisecond
	scenarios := []string{imAck, imSilent, imError}
	users := len(scenarios) * 3

	clk := clock.NewReal()
	schedule := make(map[string]string, users)
	for i := 0; i < users; i++ {
		schedule[fmt.Sprintf("a-%d", i)] = scenarios[i%len(scenarios)]
	}

	// Buddy side: the same executor machinery mab.Service delegates to,
	// run directly against each profile.
	buddyAcks := core.NewAcks(clk)
	buddyChans := scriptedChannels(schedule, ackDelay, func(handle string, seq uint64) {
		buddyAcks.HandleIncoming(im.Message{From: handle, Text: core.AckText(seq)})
	}, nil)
	buddyExec, err := core.NewExecutor(clk, buddyChans, buddyAcks)
	if err != nil {
		t.Fatal(err)
	}

	// Hub side: hosted tenants with the same profiles, delivering
	// through the hub's delivery stage.
	var hb *Hub
	hubChans := scriptedChannels(schedule, ackDelay, func(handle string, seq uint64) {
		hb.HandleIncoming(im.Message{From: handle, Text: core.AckText(seq)})
	}, nil)
	var mu sync.Mutex
	hubTraces := make(map[string]fallbackTrace)
	hb = newTestHub(t, Config{
		Clock:    clk,
		Channels: hubChans,
		Shards:   4,
		onDelivery: func(user string, rep *core.Report, err error) {
			if rep == nil {
				return
			}
			mu.Lock()
			hubTraces[rep.AlertKey] = traceOf(rep)
			mu.Unlock()
		},
	})
	addUsers(t, hb, users)

	buddyTraces := make(map[string]fallbackTrace)
	alerts := make([]*alert.Alert, users)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("user-%d", i)
		profile := modeProfile(t, user, blockTimeout)
		b, ok := hb.buddy(user)
		if !ok {
			t.Fatalf("tenant %s not hosted", user)
		}
		b.SetProfile(profile)
		if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
			t.Fatal(err)
		}
		// The buddy-path reference run, concurrently (the executor is
		// reentrant; silent scenarios each hold a full block timeout).
		alerts[i] = portalAlert(i, clk.Now())
		routed := alerts[i].Clone()
		routed.Keywords = []string{"Investment"}
		mode, err := profile.Mode("IMThenEmail")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			rep, _ := buddyExec.DeliverAs(core.DeliveryContext{User: user}, routed, profile.Addresses(), mode)
			if rep == nil {
				t.Errorf("buddy executor returned nil report for %s", user)
				return
			}
			mu.Lock()
			buddyTraces[rep.AlertKey] = traceOf(rep)
			mu.Unlock()
		}(user)
	}
	if err := hb.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("user-%d", i)
		if err := hb.Submit(user, alerts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := hb.Drain(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(hubTraces) != users || len(buddyTraces) != users {
		t.Fatalf("traced %d hub / %d buddy deliveries, want %d each", len(hubTraces), len(buddyTraces), users)
	}
	for i := 0; i < users; i++ {
		key := alerts[i].DedupKey()
		hubTr, buddyTr := hubTraces[key], buddyTraces[key]
		if hubTr != buddyTr {
			t.Errorf("alert a-%d (%s): hub trace %+v != buddy trace %+v",
				i, scenarios[i%len(scenarios)], hubTr, buddyTr)
		}
		// Pin the expected fallback decision per scenario.
		want := fallbackTrace{}
		switch scenarios[i%len(scenarios)] {
		case imAck:
			want = fallbackTrace{blocks: "0:ok", via: "Pager IM", viaType: addr.TypeIM, delivered: true}
		default: // silent and error both fall back to the email block
			want = fallbackTrace{blocks: "0:fail 1:ok", via: "Work email", viaType: addr.TypeEmail, delivered: true}
		}
		if hubTr != want {
			t.Errorf("alert a-%d (%s): hub trace %+v, want %+v", i, scenarios[i%len(scenarios)], hubTr, want)
		}
	}

	// The channel split must attribute the fallbacks: 1/3 of tenants
	// acked over IM, the rest landed on email.
	st := hb.Stats()
	if got := st.DeliveredByChannel[addr.TypeIM]; got != int64(users/3) {
		t.Errorf("delivered via IM = %d, want %d", got, users/3)
	}
	if got := st.DeliveredByChannel[addr.TypeEmail]; got != int64(2*users/3) {
		t.Errorf("delivered via email = %d, want %d", got, 2*users/3)
	}
}
