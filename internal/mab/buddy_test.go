package mab

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/email"
	"simba/internal/enduser"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/sms"
)

// fixture wires the full Figure-5 style topology: one alert source,
// the buddy, and one user with IM + email + SMS endpoints.
type fixture struct {
	t       *testing.T
	sim     *clock.Sim
	machine *automation.Machine
	imSvc   *im.Service
	emSvc   *email.Service
	carrier *sms.Carrier
	journal *faults.Journal

	buddy     *Service
	srcEngine *core.Engine
	srcEp     *core.DirectIM
	buddyReg  *addr.Registry // the buddy's addresses, as a source sees them
	user      *enduser.User
}

const (
	buddyIM    = "my-alert-buddy"
	buddyEmail = "buddy@sim"
	userIM     = "alice-im"
	userEmail  = "alice@work.sim"
	userPhone  = "5551234"
)

func newFixture(t *testing.T) *fixture {
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
	carrier, err := sms.NewCarrier(sms.Config{
		Clock: sim,
		RNG:   dist.NewRNG(3),
		Delay: dist.Fixed(8 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		t:       t,
		sim:     sim,
		machine: automation.NewMachine(sim),
		imSvc:   imSvc,
		emSvc:   emSvc,
		carrier: carrier,
		journal: &faults.Journal{},
	}

	// Accounts and endpoints.
	for _, h := range []string{buddyIM, "proxy-src", userIM} {
		if err := imSvc.Register(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []string{buddyEmail, "proxy@sim", userEmail} {
		if _, err := emSvc.CreateMailbox(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := carrier.Provision(userPhone); err != nil {
		t.Fatal(err)
	}
	gateway, err := sms.AttachGateway(sim, emSvc, carrier, userPhone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gateway.Stop)

	// The buddy.
	buddy, err := New(Config{
		Clock:            sim,
		Machine:          f.machine,
		IMService:        imSvc,
		EmailService:     emSvc,
		IMHandle:         buddyIM,
		EmailAddress:     buddyEmail,
		LogPath:          filepath.Join(t.TempDir(), "buddy.plog"),
		Journal:          f.journal,
		PollPeriod:       5 * time.Second,
		StartupDelay:     -1,
		CallTimeout:      10 * time.Second,
		RejuvenationTime: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(buddy.Kill) // whichever incarnation is current at the end
	f.buddy = buddy

	// The buddy's user configuration.
	buddy.Classifier().Accept(SourceRule{Source: "unit-src", Extract: ExtractNative})
	buddy.Aggregator().Map("Stocks", "Investment")
	profile, err := buddy.Store().RegisterUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "MSN IM", Target: userIM, Enabled: true},
		{Type: addr.TypeSMS, Name: "Cell SMS", Target: sms.GatewayAddress(userPhone), Enabled: true},
		{Type: addr.TypeEmail, Name: "Work email", Target: userEmail, Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := profile.DefineMode(dmode.IMThenEmail("MSN IM", "Work email", 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := buddy.Store().Subscribe("Investment", "alice", "IMThenEmail"); err != nil {
		t.Fatal(err)
	}

	// The source: delivers to the buddy over IM-with-ack + email.
	srcEmail, err := core.NewDirectEmail(emSvc, "proxy@sim")
	if err != nil {
		t.Fatal(err)
	}
	srcEp, err := core.NewDirectIM(sim, imSvc, "proxy-src", nil)
	if err != nil {
		t.Fatal(err)
	}
	srcEngine, err := core.NewEngine(sim, srcEp, srcEmail)
	if err != nil {
		t.Fatal(err)
	}
	wireDirectIM(srcEp, srcEngine)
	if err := srcEp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srcEp.Stop)
	f.srcEngine = srcEngine
	f.srcEp = srcEp
	buddyReg := addr.NewRegistry("buddy-as-target")
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "Buddy IM", Target: buddyIM, Enabled: true},
		{Type: addr.TypeEmail, Name: "Buddy email", Target: buddyEmail, Enabled: true},
	} {
		if err := buddyReg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	f.buddyReg = buddyReg

	// The user.
	user, err := enduser.New(enduser.Config{
		Clock:            sim,
		Name:             "alice",
		IMService:        imSvc,
		IMHandle:         userIM,
		EmailService:     emSvc,
		EmailAddresses:   []string{userEmail},
		Carrier:          carrier,
		PhoneNumber:      userPhone,
		EmailCheckPeriod: time.Minute,
		SMSReadDelay:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(user.Stop)
	f.user = user
	return f
}

// wireDirectIM connects inbound messages (acks) to the engine.
func wireDirectIM(ep *core.DirectIM, eng *core.Engine) {
	// DirectIM exposes its handler via construction only; tests inside
	// package core set it directly. Here we rebuild via the public
	// pattern: the fixture constructs with a nil handler, so use the
	// exported hook below.
	ep.SetOnMessage(func(m im.Message) { eng.HandleIncoming(m) })
}

func (f *fixture) startBuddy() {
	f.t.Helper()
	if err := f.buddy.Start(); err != nil {
		f.t.Fatal(err)
	}
}

// newAlert builds an alert from the accepted unit-src source.
func (f *fixture) newAlert() *alert.Alert {
	return &alert.Alert{
		ID:       alert.NextID("u"),
		Source:   "unit-src",
		Keywords: []string{"Stocks"},
		Subject:  "MSFT earnings",
		Body:     "Quarterly results are out.",
		Urgency:  alert.UrgencyHigh,
		Created:  f.sim.Now(),
	}
}

// sendToBuddy delivers an alert to the buddy with IM-then-email and
// drives the clock, in 100 ms strides, until the source-side delivery
// completes.
func (f *fixture) sendToBuddy(a *alert.Alert) *core.Report {
	f.t.Helper()
	mode := dmode.Mode{Name: "ToBuddy", Blocks: []dmode.Block{
		{Timeout: dmode.Duration(15 * time.Second), Actions: []dmode.Action{{Address: "Buddy IM"}}},
		{Actions: []dmode.Action{{Address: "Buddy email"}}},
	}}
	var rep *core.Report
	var err error
	if derr := f.sim.Drive(func() { rep, err = f.srcEngine.Deliver(a, f.buddyReg, &mode) }, 100*time.Millisecond); derr != nil {
		f.t.Fatal(derr)
	}
	if err != nil {
		f.t.Fatalf("source delivery failed: %v", err)
	}
	return rep
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	sim := clock.NewSim(time.Time{})
	imSvc, _ := im.NewService(im.Config{Clock: sim, RNG: dist.NewRNG(1)})
	emSvc, _ := email.NewService(email.Config{Clock: sim, RNG: dist.NewRNG(2)})
	machine := automation.NewMachine(sim)
	if _, err := New(Config{Clock: sim, Machine: machine, IMService: imSvc, EmailService: emSvc}); err == nil {
		t.Fatal("missing addresses accepted")
	}
	if _, err := New(Config{Clock: sim, Machine: machine, IMService: imSvc, EmailService: emSvc,
		IMHandle: "h", EmailAddress: "e"}); err == nil {
		t.Fatal("missing log path accepted")
	}
}

func TestEndToEndIMDelivery(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	a := f.newAlert()
	rep := f.sendToBuddy(a)

	// The source's IM block succeeded: the buddy logged and acked.
	if !rep.Delivered || rep.DeliveredVia != "Buddy IM" {
		t.Fatalf("source report = %+v", rep)
	}
	// Ack budget per the paper: ~1.5s (hop + pessimistic log + hop).
	if got := rep.Latency(); got < 500*time.Millisecond || got > 4*time.Second {
		t.Fatalf("ack latency = %v, want ~1.5s", got)
	}

	// The user receives the routed alert over IM and acks it.
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, 500*time.Millisecond, time.Hour) {
		t.Fatal("condition not reached")
	}
	receipts := f.user.Receipts()
	if receipts[0].Channel != addr.TypeIM {
		t.Fatalf("receipt channel = %v", receipts[0].Channel)
	}
	// End-to-end: source → buddy (0.3s) + log (0.2s) + buddy → user
	// (0.3s) plus scheduling slack.
	if receipts[0].Latency > 5*time.Second {
		t.Fatalf("end-to-end latency = %v", receipts[0].Latency)
	}
	if receipts[0].Alert.Keywords[0] != "Investment" {
		t.Fatalf("routed alert keywords = %v", receipts[0].Alert.Keywords)
	}

	// The user's receipt lands mid-route; wait for the routing stage to
	// finish before checking its counters.
	c := f.buddy.Counters()
	if !f.sim.RunUntil(func() bool {
		return c.Get("routed") == 1 && c.Get("delivered") == 1
	}, 500*time.Millisecond, time.Hour) {
		t.Fatal("condition not reached")
	}
	for _, name := range []string{"received", "acked", "routed", "delivered"} {
		if c.Get(name) != 1 {
			t.Fatalf("counter %s = %d (%s)", name, c.Get(name), c)
		}
	}
}

func TestFallbackToEmailWhenUserAway(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.user.SetPresent(false) // online but not acking
	a := f.newAlert()
	f.sendToBuddy(a)

	// IM block times out (10s), email fallback delivers (20s transit),
	// user checks mail every minute.
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, 2*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	receipts := f.user.Receipts()
	if receipts[0].Channel != addr.TypeEmail {
		t.Fatalf("receipt channel = %v, want email", receipts[0].Channel)
	}
	if f.buddy.Counters().Get("delivered") != 1 {
		t.Fatal("buddy did not count the delivery")
	}
}

func TestRejectedSourceDropped(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	a := f.newAlert()
	a.Source = "spam-source"
	f.sendToBuddy(a)
	if !f.sim.RunUntil(func() bool { return f.buddy.Counters().Get("rejected") == 1 }, 500*time.Millisecond, time.Hour) {
		t.Fatal("condition not reached")
	}
	f.sim.RunFor(30*time.Second, time.Second)
	if f.user.ReceiptCount() != 0 {
		t.Fatal("rejected alert reached the user")
	}
}

func TestFilteredCategoryDropped(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.buddy.Filter().SetEnabled("Investment", false)
	f.sendToBuddy(f.newAlert())
	if !f.sim.RunUntil(func() bool { return f.buddy.Counters().Get("filtered") == 1 }, 500*time.Millisecond, time.Hour) {
		t.Fatal("condition not reached")
	}
	f.sim.RunFor(30*time.Second, time.Second)
	if f.user.ReceiptCount() != 0 {
		t.Fatal("filtered alert reached the user")
	}
}

func TestDynamicModeSwitch(t *testing.T) {
	// The paper's one-stop switch: change the Investment category from
	// IM-first to SMS-only at the buddy, without touching sources.
	f := newFixture(t)
	f.startBuddy()
	profile, err := f.buddy.Store().User("alice")
	if err != nil {
		t.Fatal(err)
	}
	smsMode := &dmode.Mode{Name: "SMSOnly", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "Cell SMS"}}},
	}}
	if err := profile.DefineMode(smsMode); err != nil {
		t.Fatal(err)
	}
	if err := f.buddy.Store().Subscribe("Investment", "alice", "SMSOnly"); err != nil {
		t.Fatal(err)
	}
	f.sendToBuddy(f.newAlert())
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	if got := f.user.Receipts()[0].Channel; got != addr.TypeSMS {
		t.Fatalf("receipt channel = %v, want SMS", got)
	}
}

func TestDisabledSMSFallsBackToEmail(t *testing.T) {
	// Cell out of coverage: user disables the SMS address at the buddy;
	// the SMS block fails automatically and email takes over.
	f := newFixture(t)
	f.startBuddy()
	profile, err := f.buddy.Store().User("alice")
	if err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{Name: "SMSThenEmail", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "Cell SMS"}}},
		{Actions: []dmode.Action{{Address: "Work email"}}},
	}}
	if err := profile.DefineMode(mode); err != nil {
		t.Fatal(err)
	}
	if err := f.buddy.Store().Subscribe("Investment", "alice", "SMSThenEmail"); err != nil {
		t.Fatal(err)
	}
	if err := profile.Addresses().SetEnabled("Cell SMS", false); err != nil {
		t.Fatal(err)
	}
	f.sendToBuddy(f.newAlert())
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, 2*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	if got := f.user.Receipts()[0].Channel; got != addr.TypeEmail {
		t.Fatalf("receipt channel = %v, want email", got)
	}
}

func TestLegacyEmailAlertClassifiedBySender(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.buddy.Classifier().Accept(SourceRule{Source: "yahoo.sim", Extract: ExtractSender})
	f.buddy.Aggregator().Map("stocks", "Investment")
	// A legacy service emails the buddy directly (no SIMBA payload).
	if err := f.emSvc.Submit("stocks@yahoo.sim", buddyEmail, "MSFT news", "plain body"); err != nil {
		t.Fatal(err)
	}
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, 2*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	got := f.user.Receipts()[0]
	if got.Alert.Keywords[0] != "Investment" {
		t.Fatalf("legacy alert keywords = %v", got.Alert.Keywords)
	}
}

func TestIMClientLogoutHealedBySanityCheck(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.imSvc.ForceLogout(buddyIM)
	// The 1-minute sanity check re-logs-in.
	if !f.sim.RunUntil(func() bool {
		return f.journal.Count(faults.KindRelogin) >= 1
	}, 10*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	// Alerts flow again.
	f.sendToBuddy(f.newAlert())
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
}

func TestHungIMClientRestartedBySanityCheck(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	// Grab the current client app and hang it.
	if !f.sim.RunUntil(func() bool { return f.buddy.Running() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	f.hangBuddyIMClient()
	if !f.sim.RunUntil(func() bool {
		return f.journal.Count(faults.KindClientRestart) >= 1
	}, 15*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	f.sendToBuddy(f.newAlert())
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
}

// hangBuddyIMClient reaches into the incarnation to hang the client.
func (f *fixture) hangBuddyIMClient() {
	f.buddy.mu.Lock()
	inc := f.buddy.inc
	f.buddy.mu.Unlock()
	if inc == nil {
		f.t.Fatal("no incarnation")
	}
	inc.imMgr.App().Hang()
}

func TestLostEventsHealedByUnprocessedCheck(t *testing.T) {
	f := newFixture(t)
	f.buddy.cfg.OnIMLaunch = func(app *automation.IMClientApp) {
		app.SetEventLossProbability(1.0)
	}
	f.startBuddy()
	f.sendToBuddy(f.newAlert())
	// No events fire, but the poll/unprocessed sweep finds the alert
	// within a poll period.
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() == 1 }, 2*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
}

func TestCrashReplayDeliversUnprocessedAlert(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	a := f.newAlert()
	rep := f.sendToBuddy(a)
	if !rep.Delivered {
		t.Fatal("source delivery failed")
	}
	// Crash immediately after the ack: routing may not have finished.
	f.buddy.InjectCrash()
	if !f.sim.RunUntil(func() bool { return !f.buddy.Running() }, 100*time.Millisecond, time.Hour) {
		t.Fatal("condition not reached")
	}
	// Restart: the pessimistic log replays anything unprocessed.
	if err := f.buddy.Start(); err != nil {
		t.Fatal(err)
	}
	if !f.sim.RunUntil(func() bool { return f.user.ReceiptCount() >= 1 }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	// Exactly one distinct alert, duplicates (if the crash raced the
	// first delivery) discarded by timestamp.
	if got := f.user.ReceiptCount(); got != 1 {
		t.Fatalf("ReceiptCount = %d", got)
	}
}

// TestCrashRestartLoopCommittersFlat cycles the buddy through crash and
// restart: each incarnation's pessimistic log owns a committer
// goroutine, and every one of them must exit with its incarnation.
// (It counts committers rather than all goroutines because the
// simulated client software of a dead incarnation lingers.)
func TestCrashRestartLoopCommittersFlat(t *testing.T) {
	committers := func() int {
		buf := make([]byte, 1<<20)
		return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("plog.(*Log).committer("))
	}
	f := newFixture(t)
	f.startBuddy()
	if rep := f.sendToBuddy(f.newAlert()); !rep.Delivered {
		t.Fatal("source delivery failed")
	}
	if n := committers(); n != 1 {
		t.Fatalf("%d committers under one running buddy, want 1", n)
	}
	for i := 0; i < 25; i++ {
		f.buddy.InjectCrash()
		if !f.sim.RunUntil(func() bool { return !f.buddy.Running() }, 100*time.Millisecond, time.Hour) {
			t.Fatal("condition not reached")
		}
		if err := f.buddy.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if n := committers(); n != 1 {
		t.Fatalf("%d committers after 25 crash/restart cycles, want the live incarnation's 1", n)
	}
}

func TestRemoteRejuvenationKeyword(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	if _, err := f.srcEp.Send(buddyIM, RejuvenateKeyword+" please"); err != nil {
		t.Fatal(err)
	}
	if !f.sim.RunUntil(func() bool { return !f.buddy.Running() }, 500*time.Millisecond, time.Hour) {
		t.Fatal("condition not reached")
	}
	if f.journal.CountMatching(faults.KindRejuvenation, "remote rejuvenation") == 0 {
		t.Fatal("remote rejuvenation not journaled")
	}
}

func TestNightlyRejuvenation(t *testing.T) {
	f := newFixture(t)
	// Sim epoch is 09:00; schedule rejuvenation for 09:30.
	f.buddy.cfg.RejuvenationTime = 9*time.Hour + 30*time.Minute
	f.startBuddy()
	f.sim.RunFor(29*time.Minute, time.Minute)
	if !f.buddy.Running() {
		t.Fatal("buddy exited before the rejuvenation time")
	}
	if !f.sim.RunUntil(func() bool { return !f.buddy.Running() }, time.Minute, time.Hour) {
		t.Fatal("condition not reached")
	}
	if f.journal.CountMatching(faults.KindRejuvenation, "nightly") == 0 {
		t.Fatal("nightly rejuvenation not journaled")
	}
}

func TestAreYouWorking(t *testing.T) {
	f := newFixture(t)
	if f.buddy.AreYouWorking() {
		t.Fatal("healthy before start")
	}
	f.startBuddy()
	if !f.buddy.AreYouWorking() {
		t.Fatal("unhealthy after start")
	}
	f.buddy.InjectHang()
	// Heartbeats go stale after HeartbeatMaxAge (5m default).
	f.sim.RunFor(6*time.Minute, 30*time.Second)
	if f.buddy.AreYouWorking() {
		t.Fatal("hung buddy reports healthy")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	if err := f.buddy.Start(); err == nil {
		t.Fatal("second Start accepted while running")
	}
}

func TestMachinePowerOffKillsBuddy(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.machine.PowerOff()
	if !f.sim.RunUntil(func() bool { return !f.buddy.Running() }, 2*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	if err := f.buddy.Start(); err == nil {
		t.Fatal("Start succeeded with machine off")
	}
	f.machine.PowerOn()
	if err := f.buddy.Start(); err != nil {
		t.Fatalf("Start after power on: %v", err)
	}
}

func TestMultipleSubscribersAlertSharing(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	// Second subscriber to the same category.
	if err := f.imSvc.Register("bob-im"); err != nil {
		t.Fatal(err)
	}
	bob, err := enduser.New(enduser.Config{
		Clock: f.sim, Name: "bob", IMService: f.imSvc, IMHandle: "bob-im",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bob.Stop)
	profile, err := f.buddy.Store().RegisterUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.Addresses().Register(addr.Address{
		Type: addr.TypeIM, Name: "Bob IM", Target: "bob-im", Enabled: true,
	}); err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{Name: "IMOnly", Blocks: []dmode.Block{
		{Timeout: dmode.Duration(10 * time.Second), Actions: []dmode.Action{{Address: "Bob IM"}}},
	}}
	if err := profile.DefineMode(mode); err != nil {
		t.Fatal(err)
	}
	if err := f.buddy.Store().Subscribe("Investment", "bob", "IMOnly"); err != nil {
		t.Fatal(err)
	}
	f.sendToBuddy(f.newAlert())
	if !f.sim.RunUntil(func() bool {
		return f.user.ReceiptCount() == 1 && bob.ReceiptCount() == 1
	}, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
}
