package automation

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/email"
	"simba/internal/im"
)

type fixture struct {
	sim     *clock.Sim
	machine *Machine
	imSvc   *im.Service
	emSvc   *email.Service
}

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
		Delay: dist.Fixed(10 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sim: sim, machine: NewMachine(sim), imSvc: imSvc, emSvc: emSvc}
}

func (f *fixture) launchIM(t *testing.T, handle string) *IMClientApp {
	t.Helper()
	if err := f.imSvc.Register(handle); err != nil {
		t.Fatal(err)
	}
	app, err := LaunchIMClient(f.machine, f.imSvc, handle)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Login(); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestProcLifecycle(t *testing.T) {
	f := newFixture(t)
	p, err := f.machine.StartProc("x")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Running() || p.State() != StateRunning || p.Name() != "x" || p.PID() == 0 {
		t.Fatalf("fresh proc: %+v", p)
	}
	if len(f.machine.Processes()) != 1 {
		t.Fatal("process not registered")
	}
	p.Kill()
	if p.Running() || p.State() != StateExited {
		t.Fatal("killed proc still running")
	}
	if len(f.machine.Processes()) != 0 {
		t.Fatal("killed proc still registered")
	}
	// Idempotent.
	p.Kill()
	p.Crash()
	if p.State() != StateExited {
		t.Fatal("terminal state changed")
	}
}

func TestHungProcLooksRunning(t *testing.T) {
	f := newFixture(t)
	p, _ := f.machine.StartProc("x")
	p.Hang()
	if !p.Running() || p.State() != StateRunning {
		t.Fatal("hang should be externally invisible")
	}
}

func TestGateBlocksWhileHungUnblocksOnKill(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	app.Hang()
	var returned atomic.Bool
	var err error
	f.sim.Go(func() {
		_, err = app.LoggedIn()
		returned.Store(true)
	})
	f.sim.Advance(time.Hour)
	if returned.Load() {
		t.Fatalf("call completed on hung app: %v", err)
	}
	app.Kill()
	f.sim.Advance(0)
	if !returned.Load() || !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("after kill: returned %v, err = %v, want ErrStaleHandle", returned.Load(), err)
	}
}

func TestCrashedHandleIsStale(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	app.Crash()
	if _, err := app.SendMessage("buddy", "x"); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("SendMessage = %v", err)
	}
	if err := app.Login(); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("Login = %v", err)
	}
}

func TestModalDialogBlocksOwnerUntilClicked(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.machine.Desktop().PopDialog("Connection Error", []string{"OK"}, app.Proc, f.sim.Now())
	var returned atomic.Bool
	f.sim.Go(func() {
		_, _ = app.LoggedIn()
		returned.Store(true)
	})
	f.sim.Advance(time.Hour)
	if returned.Load() {
		t.Fatal("call completed with modal dialog open")
	}
	if !f.machine.Desktop().ClickButton("Connection Error", "OK") {
		t.Fatal("ClickButton failed")
	}
	f.sim.Advance(0)
	if !returned.Load() {
		t.Fatal("call still blocked after dialog dismissed")
	}
	if len(f.machine.Desktop().Open()) != 0 {
		t.Fatal("dialog still open")
	}
}

func TestClickButtonRequiresMatchingCaptionAndButton(t *testing.T) {
	f := newFixture(t)
	d := f.machine.Desktop()
	d.PopDialog("Warning", []string{"Yes", "No"}, nil, f.sim.Now())
	if d.ClickButton("Other", "Yes") {
		t.Fatal("clicked wrong caption")
	}
	if d.ClickButton("Warning", "OK") {
		t.Fatal("clicked nonexistent button")
	}
	if !d.ClickButton("Warning", "No") {
		t.Fatal("failed to click valid button")
	}
}

func TestSystemDialogDoesNotBlockApps(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.machine.Desktop().PopDialog("Low Disk Space", []string{"OK"}, nil, f.sim.Now())
	if _, err := app.LoggedIn(); err != nil {
		t.Fatalf("LoggedIn = %v", err)
	}
	open := f.machine.Desktop().Open()
	if len(open) != 1 || open[0].OwnerPID != 0 {
		t.Fatalf("Open() = %+v", open)
	}
}

func TestDialogsVanishWithDeadOwner(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.machine.Desktop().PopDialog("Oops", []string{"OK"}, app.Proc, f.sim.Now())
	app.Crash()
	if len(f.machine.Desktop().Open()) != 0 {
		t.Fatal("dead proc's dialog survived")
	}
}

func TestMemoryLeak(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	base := app.MemoryMB()
	app.SetLeakRate(5)
	for i := 0; i < 10; i++ {
		if _, err := app.LoggedIn(); err != nil {
			t.Fatal(err)
		}
	}
	if got := app.MemoryMB(); got < base+50 {
		t.Fatalf("MemoryMB = %v, want >= %v", got, base+50)
	}
}

func TestIMClientSendReceiveAck(t *testing.T) {
	f := newFixture(t)
	buddy := f.launchIM(t, "buddy")
	src := f.launchIM(t, "source")

	seq, err := src.SendMessage("buddy", "alert text")
	if err != nil {
		t.Fatal(err)
	}
	f.sim.Advance(time.Second)
	select {
	case <-buddy.Events():
	default:
		t.Fatal("no new-IM event")
	}
	msgs, err := buddy.FetchNew()
	if err != nil || len(msgs) != 1 {
		t.Fatalf("FetchNew = %v, %v", msgs, err)
	}
	if msgs[0].Text != "alert text" || msgs[0].Seq != seq {
		t.Fatalf("message = %+v", msgs[0])
	}
}

func TestIMClientSpontaneousLogoutDetectedAndFixed(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.imSvc.ForceLogout("buddy")
	ok, err := app.LoggedIn()
	if err != nil || ok {
		t.Fatalf("LoggedIn = %v, %v after forced logout", ok, err)
	}
	if err := app.Login(); err != nil {
		t.Fatalf("re-login: %v", err)
	}
	ok, _ = app.LoggedIn()
	if !ok {
		t.Fatal("not logged in after re-login")
	}
}

func TestIMClientEventLossLeavesUnread(t *testing.T) {
	f := newFixture(t)
	buddy := f.launchIM(t, "buddy")
	src := f.launchIM(t, "source")
	buddy.SetEventLossProbability(1.0)
	if _, err := src.SendMessage("buddy", "quiet"); err != nil {
		t.Fatal(err)
	}
	f.sim.Advance(time.Second)
	wantUnread(t, buddy.UnreadCount)
	select {
	case <-buddy.Events():
		t.Fatal("event arrived despite 100% loss")
	default:
	}
}

func TestIMClientBuddyStatus(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	if err := f.imSvc.Register("friend"); err != nil {
		t.Fatal(err)
	}
	st, err := app.BuddyStatus("friend")
	if err != nil || st != im.StatusOffline {
		t.Fatalf("BuddyStatus = %v, %v", st, err)
	}
	if err := app.Logout(); err != nil {
		t.Fatal(err)
	}
	if _, err := app.BuddyStatus("friend"); !errors.Is(err, im.ErrNotLoggedIn) {
		t.Fatalf("BuddyStatus after logout = %v", err)
	}
}

func TestEmailClientRoundTrip(t *testing.T) {
	f := newFixture(t)
	if _, err := f.emSvc.CreateMailbox("buddy@sim"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.emSvc.CreateMailbox("src@sim"); err != nil {
		t.Fatal(err)
	}
	buddy, err := LaunchEmailClient(f.machine, f.emSvc, "buddy@sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := buddy.Connect(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := buddy.Connected(); !ok {
		t.Fatal("not connected")
	}
	src, err := LaunchEmailClient(f.machine, f.emSvc, "src@sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SendMail("buddy@sim", "subj", "body"); err != nil {
		t.Fatal(err)
	}
	f.sim.Advance(time.Minute)
	wantUnread(t, buddy.UnreadCount)
	msgs, err := buddy.FetchNew()
	if err != nil || len(msgs) != 1 || msgs[0].Subject != "subj" {
		t.Fatalf("FetchNew = %+v, %v", msgs, err)
	}
}

func TestEmailClientConnectUnknownMailbox(t *testing.T) {
	f := newFixture(t)
	app, err := LaunchEmailClient(f.machine, f.emSvc, "ghost@sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Connect(); !errors.Is(err, email.ErrNoSuchMailbox) {
		t.Fatalf("Connect = %v", err)
	}
}

func TestEmailClientFetchSweepsMailboxOnEventLoss(t *testing.T) {
	f := newFixture(t)
	if _, err := f.emSvc.CreateMailbox("buddy@sim"); err != nil {
		t.Fatal(err)
	}
	app, err := LaunchEmailClient(f.machine, f.emSvc, "buddy@sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Connect(); err != nil {
		t.Fatal(err)
	}
	app.SetEventLossProbability(1.0)
	if err := f.emSvc.Submit("x@sim", "buddy@sim", "s", "b"); err != nil {
		t.Fatal(err)
	}
	f.sim.Advance(time.Minute)
	// Event was lost; a direct poll must still find the message
	// (pending or still in mailbox).
	wantUnread(t, app.UnreadCount)
	msgs, err := app.FetchNew()
	if err != nil || len(msgs) != 1 {
		t.Fatalf("FetchNew = %d msgs, %v", len(msgs), err)
	}
}

func TestMachinePowerOffKillsEverything(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.machine.Desktop().PopDialog("W", []string{"OK"}, nil, f.sim.Now())
	f.machine.PowerOff()
	if f.machine.Powered() {
		t.Fatal("still powered")
	}
	if app.Running() {
		t.Fatal("proc survived power cut")
	}
	if len(f.machine.Desktop().Open()) != 0 {
		t.Fatal("dialogs survived power cut")
	}
	if _, err := f.machine.StartProc("x"); !errors.Is(err, ErrMachineOff) {
		t.Fatalf("StartProc while off = %v", err)
	}
	f.machine.PowerOn()
	if _, err := f.machine.StartProc("x"); err != nil {
		t.Fatalf("StartProc after power on = %v", err)
	}
}

func TestMachineRebootTakesTimeAndClears(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.machine.Desktop().PopDialog("W", []string{"OK"}, nil, f.sim.Now())
	var done atomic.Bool
	f.sim.Go(func() {
		f.machine.Reboot(2 * time.Minute)
		done.Store(true)
	})
	f.sim.Advance(time.Minute)
	if app.Running() || done.Load() {
		t.Fatal("reboot returned before boot time, or left the app running")
	}
	f.sim.Advance(time.Minute)
	if !done.Load() {
		t.Fatal("reboot still running after its boot time")
	}
	if len(f.machine.Desktop().Open()) != 0 {
		t.Fatal("dialogs survived reboot")
	}
	if f.machine.Reboots() != 1 {
		t.Fatalf("Reboots() = %d", f.machine.Reboots())
	}
}

func TestProcStateString(t *testing.T) {
	for _, tt := range []struct {
		s    ProcState
		want string
	}{
		{StateRunning, "running"}, {StateHung, "hung"},
		{StateCrashed, "crashed"}, {StateExited, "exited"}, {ProcState(42), "state(42)"},
	} {
		if got := tt.s.String(); got != tt.want {
			t.Fatalf("String(%d) = %q", int(tt.s), got)
		}
	}
}

// wantUnread fails unless exactly one message has landed.
func wantUnread(t *testing.T, count func() (int, error)) {
	t.Helper()
	if n, err := count(); err != nil || n != 1 {
		t.Fatalf("UnreadCount = %d, %v; want 1", n, err)
	}
}

func TestUPSRidesThroughOutage(t *testing.T) {
	f := newFixture(t)
	app := f.launchIM(t, "buddy")
	f.machine.SetUPS(true)
	f.machine.PowerOff()
	if !f.machine.Powered() {
		t.Fatal("machine lost power despite UPS")
	}
	if !app.Running() {
		t.Fatal("process died despite UPS")
	}
	if f.machine.OutagesSurvived() != 1 {
		t.Fatalf("OutagesSurvived = %d", f.machine.OutagesSurvived())
	}
	// Detaching the UPS restores the paper's original failure mode.
	f.machine.SetUPS(false)
	f.machine.PowerOff()
	if f.machine.Powered() || app.Running() {
		t.Fatal("outage without UPS should kill everything")
	}
}
