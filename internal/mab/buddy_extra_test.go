package mab

import (
	"errors"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/faults"
	"simba/internal/stabilize"
)

func TestRemoteRejuvenationViaEmail(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	if err := f.emSvc.Submit("admin@sim", buddyEmail, RejuvenateKeyword+" now", "please restart"); err != nil {
		t.Fatal(err)
	}
	f.advanceUntil(func() bool { return !f.buddy.Running() }, 5*time.Second)
	if f.journal.CountMatching(faults.KindRejuvenation, "via email") == 0 {
		t.Fatal("email rejuvenation not journaled")
	}
}

func TestMemoryLeakTriggersClientRestart(t *testing.T) {
	f := newFixture(t)
	f.buddy.cfg.MemoryLimitMB = 100
	f.startBuddy()
	f.buddy.mu.Lock()
	inc := f.buddy.inc
	f.buddy.mu.Unlock()
	oldPID := inc.imMgr.App().PID()
	// Leak hard: every automation call adds 20MB; the sanity checks
	// themselves drive it over the limit quickly.
	inc.imMgr.App().SetLeakRate(20)
	f.advanceUntil(func() bool {
		return f.journal.CountMatching(faults.KindRejuvenation, "memory over") >= 1
	}, 30*time.Second)
	f.advanceUntil(func() bool {
		app := inc.imMgr.App()
		return app != nil && app.PID() != oldPID && app.Running()
	}, 10*time.Second)
	// The buddy itself kept running: client-level rejuvenation only.
	if !f.buddy.Running() {
		t.Fatal("buddy restarted for a client-level leak")
	}
}

// TestInvariantEscalationTerminatesFromItsOwnCheck: the stabilizer's
// escalation rejuvenates the buddy from inside a check goroutine, and
// terminating stops the very stabilizer that is running it — so Stop
// must not wait for its checks, and once the incarnation is gone the
// stabilizer's goroutines are too (Wait returns).
func TestInvariantEscalationTerminatesFromItsOwnCheck(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.buddy.mu.Lock()
	inc := f.buddy.inc
	f.buddy.mu.Unlock()
	inc.stab.Stop()
	inc.stab.Wait()
	if err := inc.stab.Register(stabilize.Check{
		Name: "doomed", Period: time.Second, EscalateAfter: 1, Escalate: inc.unrectifiable("doomed"),
		Fn: func() error { return errors.New("cannot be healed in place") },
	}); err != nil {
		t.Fatal(err)
	}
	inc.stab.Start()
	f.advanceUntil(func() bool { return !f.buddy.Running() }, time.Second)
	if f.journal.CountMatching(faults.KindRejuvenation, `unrectifiable invariant "doomed"`) != 1 {
		t.Fatal("escalation did not rejuvenate the buddy")
	}
	gone := make(chan struct{})
	go func() { inc.stab.Wait(); close(gone) }()
	select {
	case <-gone:
	case <-time.After(10 * time.Second):
		t.Fatal("a check goroutine outlived the incarnation its escalation terminated")
	}
}

func TestExplicitRejuvenateMethod(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	f.buddy.Rejuvenate("operator request")
	f.advanceUntil(func() bool { return !f.buddy.Running() }, time.Second)
	if f.journal.CountMatching(faults.KindRejuvenation, "operator request") == 0 {
		t.Fatal("rejuvenation reason not journaled")
	}
	// Restartable afterwards.
	if err := f.buddy.Start(); err != nil {
		t.Fatal(err)
	}
	if !f.buddy.Running() {
		t.Fatal("buddy not running after restart")
	}
}

func TestInjectionHelpersWithoutIncarnation(t *testing.T) {
	f := newFixture(t)
	// All injection/observation methods must be safe before Start.
	if f.buddy.InjectIMClientHang() {
		t.Fatal("InjectIMClientHang reported success with no incarnation")
	}
	f.buddy.InjectHang()
	f.buddy.InjectCrash()
	f.buddy.Rejuvenate("noop")
	f.buddy.Kill()
	if f.buddy.AreYouWorking() {
		t.Fatal("AreYouWorking true with no incarnation")
	}
	select {
	case <-f.buddy.Exited():
	default:
		t.Fatal("Exited() not closed with no incarnation")
	}
}

func TestQuietHoursThroughBuddy(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	// Sim epoch is 09:00; quiet 08:00–17:00 suppresses Investment now.
	f.buddy.Filter().SetQuietHours("Investment", 8*time.Hour, 17*time.Hour)
	f.sendToBuddy(f.newAlert())
	f.advanceUntil(func() bool { return f.buddy.Counters().Get("filtered") == 1 }, time.Second)
	if f.user.ReceiptCount() != 0 {
		t.Fatal("quiet-hours alert reached the user")
	}
	// Clear the window: alerts flow again.
	f.buddy.Filter().SetQuietHours("Investment", 0, 0)
	f.sendToBuddy(f.newAlert())
	f.advanceUntil(func() bool { return f.user.ReceiptCount() == 1 }, time.Second)
}

func TestUnsubscribedCategoryCounted(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	a := f.newAlert()
	a.Keywords = []string{"UnmappedKeyword"} // → Uncategorized, no subscribers
	f.sendToBuddy(a)
	f.advanceUntil(func() bool { return f.buddy.Counters().Get("unsubscribed") == 1 }, time.Second)
}

func TestMalformedIMPayloadCounted(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	if _, err := f.srcEp.Send(buddyIM, "SIMBA-ALERT/1\nURGENCY: bogus\nBODY:\n"); err != nil {
		t.Fatal(err)
	}
	f.advanceUntil(func() bool { return f.buddy.Counters().Get("im-malformed") == 1 }, time.Second)
	if _, err := f.srcEp.Send(buddyIM, "just chatting"); err != nil {
		t.Fatal(err)
	}
	f.advanceUntil(func() bool { return f.buddy.Counters().Get("im-ignored") == 1 }, time.Second)
}

func TestDuplicateIMAlertAckedButNotRerouted(t *testing.T) {
	f := newFixture(t)
	f.startBuddy()
	a := f.newAlert()
	payload, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.srcEp.Send(buddyIM, string(payload)); err != nil {
			t.Fatal(err)
		}
		f.advance(5*time.Second, 500*time.Millisecond)
	}
	f.advanceUntil(func() bool { return f.buddy.Counters().Get("duplicates") == 2 }, time.Second)
	f.advanceUntil(func() bool { return f.user.ReceiptCount() == 1 }, time.Second)
	// All three IMs were acknowledged, though only one routed.
	if got := f.buddy.Counters().Get("acked"); got != 3 {
		t.Fatalf("acked = %d, want 3", got)
	}
}

func TestOnReceiveHookFires(t *testing.T) {
	f := newFixture(t)
	got := make(chan *alert.Alert, 1)
	f.buddy.cfg.OnReceive = func(a *alert.Alert, at time.Time) {
		select {
		case got <- a:
		default:
		}
	}
	f.startBuddy()
	sent := f.newAlert()
	f.sendToBuddy(sent)
	f.advanceUntil(func() bool { return len(got) == 1 }, time.Second)
	if a := <-got; a.ID != sent.ID {
		t.Fatalf("OnReceive saw %q, want %q", a.ID, sent.ID)
	}
}
