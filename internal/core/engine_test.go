package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/email"
	"simba/internal/im"
)

// --- shared fixture against real simulated services ---------------------

type engineFixture struct {
	sim    *clock.Sim
	imSvc  *im.Service
	emSvc  *email.Service
	engine *Engine
	srcEp  *DirectIM
}

func newEngineFixture(t *testing.T) *engineFixture {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	imSvc, err := im.NewService(im.Config{
		Clock:    sim,
		RNG:      dist.NewRNG(1),
		HopDelay: dist.Fixed(300 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	emSvc, err := email.NewService(email.Config{
		Clock: sim,
		RNG:   dist.NewRNG(2),
		Delay: dist.Fixed(20 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &engineFixture{sim: sim, imSvc: imSvc, emSvc: emSvc}

	if err := imSvc.Register("source"); err != nil {
		t.Fatal(err)
	}
	if _, err := emSvc.CreateMailbox("source@sim"); err != nil {
		t.Fatal(err)
	}
	emailSender, err := NewDirectEmail(emSvc, "source@sim")
	if err != nil {
		t.Fatal(err)
	}
	srcEp, err := NewDirectIM(sim, imSvc, "source", nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(sim, srcEp, emailSender)
	if err != nil {
		t.Fatal(err)
	}
	// Wire inbound messages (acks) into the engine.
	srcEp.onMessage = func(m im.Message) { engine.HandleIncoming(m) }
	if err := srcEp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srcEp.Stop)
	f.engine = engine
	f.srcEp = srcEp
	return f
}

// addUserEndpoint registers an IM user that auto-acks alert IMs after
// thinkTime. It returns the endpoint and a recorder of received texts.
func (f *engineFixture) addUserEndpoint(t *testing.T, handle string, thinkTime time.Duration, ack bool) (*DirectIM, *recordedMsgs) {
	t.Helper()
	if err := f.imSvc.Register(handle); err != nil {
		t.Fatal(err)
	}
	rec := &recordedMsgs{}
	var ep *DirectIM
	var err error
	ep, err = NewDirectIM(f.sim, f.imSvc, handle, func(m im.Message) {
		if _, isAck := ParseAck(m.Text); isAck {
			return
		}
		rec.add(m)
		if ack {
			f.sim.AfterFunc(thinkTime, func() {
				_, _ = ep.Send(m.From, AckText(m.Seq))
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Stop)
	return ep, rec
}

type recordedMsgs struct {
	mu   sync.Mutex
	msgs []im.Message
}

func (r *recordedMsgs) add(m im.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *recordedMsgs) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func testAlert(f *engineFixture) *alert.Alert {
	return &alert.Alert{
		ID:       alert.NextID("test"),
		Source:   "unit-test",
		Keywords: []string{"Stocks"},
		Subject:  "subject",
		Body:     "body",
		Urgency:  alert.UrgencyHigh,
		Created:  f.sim.Now(),
	}
}

type deliverResult struct {
	report *Report
	err    error
}

func deliver(t *testing.T, f *engineFixture, a *alert.Alert, reg *addr.Registry, mode *dmode.Mode) deliverResult {
	t.Helper()
	var res deliverResult
	if err := f.sim.Drive(func() { res.report, res.err = f.engine.Deliver(a, reg, mode) }, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return res
}

func userRegistry(t *testing.T, user string, addrs ...addr.Address) *addr.Registry {
	t.Helper()
	reg := addr.NewRegistry(user)
	for _, a := range addrs {
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// --- tests ---------------------------------------------------------------

func TestAckTextRoundTrip(t *testing.T) {
	seq, ok := ParseAck(AckText(42))
	if !ok || seq != 42 {
		t.Fatalf("ParseAck = %d, %v", seq, ok)
	}
	for _, in := range []string{"", "hello", "SIMBA-ACK", "SIMBA-ACK x", "SIMBA-ACK -1"} {
		if _, ok := ParseAck(in); ok {
			t.Fatalf("ParseAck(%q) = true", in)
		}
	}
}

func TestDeliverViaIMWithAck(t *testing.T) {
	f := newEngineFixture(t)
	_, rec := f.addUserEndpoint(t, "alice-im", 0, true)
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true})
	mode := &dmode.Mode{Name: "im-only", Blocks: []dmode.Block{{
		Timeout: dmode.Duration(10 * time.Second),
		Actions: []dmode.Action{{Address: "MSN IM"}},
	}}}
	a := testAlert(f)
	res := deliver(t, f, a, reg, mode)
	if res.err != nil {
		t.Fatalf("Deliver: %v", res.err)
	}
	rep := res.report
	if !rep.Delivered || rep.DeliveredVia != "MSN IM" {
		t.Fatalf("report = %+v", rep)
	}
	// One IM hop out (300ms) + ack hop back (300ms).
	if got := rep.Latency(); got < 500*time.Millisecond || got > 1500*time.Millisecond {
		t.Fatalf("latency = %v, want ~600ms", got)
	}
	if rec.count() != 1 {
		t.Fatalf("user received %d messages", rec.count())
	}
	if rep.Blocks[0].Actions[0].AckedAt.IsZero() {
		t.Fatal("action not marked acked")
	}
	if f.engine.PendingAcks() != 0 {
		t.Fatal("pending acks leaked")
	}
}

func TestDeliverFallsBackToEmailWhenUserOffline(t *testing.T) {
	f := newEngineFixture(t)
	// Register the IM handle but never log in: send fails immediately
	// with recipient-offline, so no block timeout is consumed.
	if err := f.imSvc.Register("alice-im"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.emSvc.CreateMailbox("alice@work.sim"); err != nil {
		t.Fatal(err)
	}
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true},
		addr.Address{Type: addr.TypeEmail, Name: "Work email", Target: "alice@work.sim", Enabled: true})
	mode := dmode.IMThenEmail("MSN IM", "Work email", 10*time.Second)
	a := testAlert(f)
	start := f.sim.Now()
	res := deliver(t, f, a, reg, mode)
	if res.err != nil {
		t.Fatalf("Deliver: %v", res.err)
	}
	rep := res.report
	if !rep.Delivered || rep.DeliveredVia != "Work email" {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.Blocks[0].Succeeded == false || len(rep.Blocks) != 2 {
		t.Fatalf("blocks = %+v", rep.Blocks)
	}
	if !errors.Is(rep.Blocks[0].Actions[0].Err, im.ErrRecipientOffline) {
		t.Fatalf("block 0 err = %v", rep.Blocks[0].Actions[0].Err)
	}
	// Offline detection is synchronous: no 10s wait.
	if rep.FinishedAt.Sub(start) > 5*time.Second {
		t.Fatalf("fallback took %v, should be immediate", rep.FinishedAt.Sub(start))
	}
	// The email actually lands in the mailbox.
	f.sim.Advance(time.Minute)
	mb, _ := f.emSvc.Mailbox("alice@work.sim")
	msgs := mb.Fetch()
	if len(msgs) != 1 {
		t.Fatalf("mailbox has %d messages", len(msgs))
	}
	var got alert.Alert
	if err := got.UnmarshalText([]byte(msgs[0].Body)); err != nil {
		t.Fatalf("email body is not an alert payload: %v", err)
	}
	if got.ID != a.ID {
		t.Fatalf("delivered alert ID %q, want %q", got.ID, a.ID)
	}
}

func TestDeliverFallsBackAfterAckTimeout(t *testing.T) {
	f := newEngineFixture(t)
	// User endpoint online but never acks (away from desk).
	_, rec := f.addUserEndpoint(t, "alice-im", 0, false)
	if _, err := f.emSvc.CreateMailbox("alice@work.sim"); err != nil {
		t.Fatal(err)
	}
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true},
		addr.Address{Type: addr.TypeEmail, Name: "Work email", Target: "alice@work.sim", Enabled: true})
	mode := dmode.IMThenEmail("MSN IM", "Work email", 10*time.Second)
	a := testAlert(f)
	start := f.sim.Now()
	res := deliver(t, f, a, reg, mode)
	if res.err != nil {
		t.Fatalf("Deliver: %v", res.err)
	}
	rep := res.report
	if !rep.Delivered || rep.DeliveredVia != "Work email" {
		t.Fatalf("report = %+v", rep)
	}
	elapsed := rep.FinishedAt.Sub(start)
	if elapsed < 10*time.Second {
		t.Fatalf("fell back after %v, before the 10s ack timeout", elapsed)
	}
	if rec.count() != 1 {
		t.Fatal("IM alert was not delivered to the online user")
	}
	if f.engine.PendingAcks() != 0 {
		t.Fatal("pending ack leaked after timeout")
	}
}

func TestDisabledSMSAddressFailsBlock(t *testing.T) {
	// The paper's scenario: SMS disabled while traveling → any block
	// containing the SMS action automatically fails and falls back.
	f := newEngineFixture(t)
	if _, err := f.emSvc.CreateMailbox("5551234@sms.sim"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.emSvc.CreateMailbox("alice@home.sim"); err != nil {
		t.Fatal(err)
	}
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeSMS, Name: "Cell SMS", Target: "5551234@sms.sim", Enabled: true},
		addr.Address{Type: addr.TypeEmail, Name: "Home email", Target: "alice@home.sim", Enabled: true})
	if err := reg.SetEnabled("Cell SMS", false); err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{Name: "sms-first", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "Cell SMS"}}},
		{Actions: []dmode.Action{{Address: "Home email"}}},
	}}
	res := deliver(t, f, testAlert(f), reg, mode)
	if res.err != nil {
		t.Fatalf("Deliver: %v", res.err)
	}
	rep := res.report
	if rep.DeliveredVia != "Home email" {
		t.Fatalf("DeliveredVia = %q", rep.DeliveredVia)
	}
	if !errors.Is(rep.Blocks[0].Actions[0].Err, ErrAddressDisabled) {
		t.Fatalf("block 0 err = %v", rep.Blocks[0].Actions[0].Err)
	}
}

func TestEnabledSMSSucceedsImmediately(t *testing.T) {
	f := newEngineFixture(t)
	if _, err := f.emSvc.CreateMailbox("5551234@sms.sim"); err != nil {
		t.Fatal(err)
	}
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeSMS, Name: "Cell SMS", Target: "5551234@sms.sim", Enabled: true})
	mode := &dmode.Mode{Name: "sms", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "Cell SMS"}}},
	}}
	res := deliver(t, f, testAlert(f), reg, mode)
	if res.err != nil || res.report.DeliveredVia != "Cell SMS" {
		t.Fatalf("res = %+v, %v", res.report, res.err)
	}
	// Fire-and-forget: no block timeout consumed.
	if res.report.Latency() > time.Second {
		t.Fatalf("latency = %v", res.report.Latency())
	}
}

func TestAllBlocksFailed(t *testing.T) {
	f := newEngineFixture(t)
	reg := userRegistry(t, "alice") // no addresses at all
	mode := &dmode.Mode{Name: "m", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "ghost"}}},
	}}
	res := deliver(t, f, testAlert(f), reg, mode)
	if !errors.Is(res.err, ErrAllBlocksFailed) {
		t.Fatalf("err = %v", res.err)
	}
	if res.report == nil || res.report.Delivered {
		t.Fatalf("report = %+v", res.report)
	}
	if !errors.Is(res.report.Blocks[0].Actions[0].Err, ErrUnknownAddress) {
		t.Fatalf("action err = %v", res.report.Blocks[0].Actions[0].Err)
	}
}

func TestDeliverValidatesInputs(t *testing.T) {
	f := newEngineFixture(t)
	reg := userRegistry(t, "alice")
	bad := testAlert(f)
	bad.ID = ""
	if _, err := f.engine.Deliver(bad, reg, dmode.Figure4()); err == nil {
		t.Fatal("invalid alert accepted")
	}
	badMode := &dmode.Mode{Name: ""}
	if _, err := f.engine.Deliver(testAlert(f), reg, badMode); err == nil {
		t.Fatal("invalid mode accepted")
	}
}

func TestNoChannelConfigured(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	engine, err := NewEngine(sim, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeIM, Name: "IM", Target: "x", Enabled: true},
		addr.Address{Type: addr.TypeEmail, Name: "EM", Target: "y", Enabled: true})
	mode := &dmode.Mode{Name: "m", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "IM"}, {Address: "EM"}}},
	}}
	a := &alert.Alert{ID: "a", Source: "s", Urgency: alert.UrgencyLow, Created: sim.Now()}
	rep, err := engine.Deliver(a, reg, mode)
	if !errors.Is(err, ErrAllBlocksFailed) {
		t.Fatalf("err = %v", err)
	}
	for _, res := range rep.Blocks[0].Actions {
		if !errors.Is(res.Err, ErrNoChannel) {
			t.Fatalf("action err = %v", res.Err)
		}
	}
}

func TestHandleIncomingNonAck(t *testing.T) {
	f := newEngineFixture(t)
	if f.engine.HandleIncoming(im.Message{From: "x", Text: "plain message"}) {
		t.Fatal("non-ack consumed")
	}
	if !f.engine.HandleIncoming(im.Message{From: "x", Text: AckText(99)}) {
		t.Fatal("stray ack not consumed")
	}
}

func TestConcurrentDeliveries(t *testing.T) {
	f := newEngineFixture(t)
	_, _ = f.addUserEndpoint(t, "alice-im", 0, true)
	reg := userRegistry(t, "alice",
		addr.Address{Type: addr.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true})
	mode := &dmode.Mode{Name: "im-only", Blocks: []dmode.Block{{
		Timeout: dmode.Duration(10 * time.Second),
		Actions: []dmode.Action{{Address: "MSN IM"}},
	}}}
	const n = 8
	results := make([]deliverResult, n)
	err := f.sim.Drive(func() {
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i].report, results[i].err = f.engine.Deliver(testAlert(f), reg, mode)
			}()
		}
		wg.Wait()
	}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.err != nil || !res.report.Delivered {
			t.Fatalf("delivery %d failed: %v", i, res.err)
		}
	}
	if f.engine.PendingAcks() != 0 {
		t.Fatal("pending acks leaked")
	}
}

// Property: the engine never sends to a disabled or unknown address,
// regardless of mode shape and registry state.
func TestNeverUsesDisabledAddressProperty(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	f := func(enabled []bool, blockPattern []uint8) bool {
		if len(enabled) == 0 || len(blockPattern) == 0 {
			return true
		}
		if len(enabled) > 12 {
			enabled = enabled[:12]
		}
		reg := addr.NewRegistry("u")
		for i, en := range enabled {
			err := reg.Register(addr.Address{
				Type:    addr.TypeEmail,
				Name:    fmt.Sprintf("addr-%d", i),
				Target:  fmt.Sprintf("t-%d", i),
				Enabled: en,
			})
			if err != nil {
				return false
			}
		}
		sender := &recordingEmailSender{}
		engine, err := NewEngine(sim, nil, sender)
		if err != nil {
			return false
		}
		mode := &dmode.Mode{Name: "m"}
		for bi, pat := range blockPattern {
			if bi >= 4 {
				break
			}
			b := dmode.Block{}
			for j := 0; j < 3; j++ {
				idx := (int(pat) + j*7) % (len(enabled) + 2) // sometimes unknown names
				b.Actions = append(b.Actions, dmode.Action{Address: fmt.Sprintf("addr-%d", idx)})
			}
			mode.Blocks = append(mode.Blocks, b)
		}
		a := &alert.Alert{ID: "a", Source: "s", Urgency: alert.UrgencyLow, Created: sim.Now()}
		_, _ = engine.Deliver(a, reg, mode)
		for _, target := range sender.targets() {
			var idx int
			if _, err := fmt.Sscanf(target, "t-%d", &idx); err != nil {
				return false
			}
			if idx >= len(enabled) || !enabled[idx] {
				return false // sent to unknown or disabled address
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type recordingEmailSender struct {
	mu   sync.Mutex
	sent []string
}

func (r *recordingEmailSender) Send(to, subject, body string) error {
	r.mu.Lock()
	r.sent = append(r.sent, to)
	r.mu.Unlock()
	return nil
}

func (r *recordingEmailSender) targets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.sent...)
}

func TestDirectIMReloginAfterKick(t *testing.T) {
	f := newEngineFixture(t)
	ep, _ := f.addUserEndpoint(t, "bob", 0, false)
	if !ep.LoggedIn() {
		t.Fatal("not logged in after Start")
	}
	f.imSvc.ForceLogout("bob")
	if ep.LoggedIn() {
		t.Fatal("LoggedIn true after kick")
	}
	if !f.sim.RunUntil(ep.LoggedIn, DefaultRetryPeriod, 10*DefaultRetryPeriod) {
		t.Fatal("endpoint never re-logged-in")
	}
}

func TestDirectIMSurvivesOutage(t *testing.T) {
	f := newEngineFixture(t)
	ep, _ := f.addUserEndpoint(t, "bob", 0, false)
	f.imSvc.Outage().Set(true, f.sim.Now())
	f.imSvc.ForceLogoutAll()
	f.sim.Advance(3 * DefaultRetryPeriod)
	if ep.LoggedIn() {
		t.Fatal("logged in during outage")
	}
	f.imSvc.Outage().Set(false, f.sim.Now())
	if !f.sim.RunUntil(ep.LoggedIn, DefaultRetryPeriod, 10*DefaultRetryPeriod) {
		t.Fatal("endpoint never recovered from outage")
	}
}

func TestDirectEmailValidation(t *testing.T) {
	f := newEngineFixture(t)
	if _, err := NewDirectEmail(nil, "x"); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := NewDirectEmail(f.emSvc, ""); err == nil {
		t.Fatal("empty from accepted")
	}
}
