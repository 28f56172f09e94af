package commgr

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/email"
	"simba/internal/faults"
	"simba/internal/im"
)

type fixture struct {
	sim     *clock.Sim
	machine *automation.Machine
	imSvc   *im.Service
	emSvc   *email.Service
	journal *faults.Journal
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
	return &fixture{
		sim:     sim,
		machine: automation.NewMachine(sim),
		imSvc:   imSvc,
		emSvc:   emSvc,
		journal: &faults.Journal{},
	}
}

func (f *fixture) newIMManager(t *testing.T, handle string) *IMManager {
	t.Helper()
	if err := f.imSvc.Register(handle); err != nil {
		t.Fatal(err)
	}
	m, err := NewIMManager(IMManagerConfig{
		Clock:        f.sim,
		Machine:      f.machine,
		Service:      f.imSvc,
		Handle:       handle,
		CallTimeout:  10 * time.Second,
		StartupDelay: -1,
		Journal:      f.journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func (f *fixture) newEmailManager(t *testing.T, address string) *EmailManager {
	t.Helper()
	if _, err := f.emSvc.CreateMailbox(address); err != nil {
		t.Fatal(err)
	}
	m, err := NewEmailManager(EmailManagerConfig{
		Clock:        f.sim,
		Machine:      f.machine,
		Service:      f.emSvc,
		Address:      address,
		CallTimeout:  10 * time.Second,
		StartupDelay: -1,
		Journal:      f.journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func TestConfigValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewIMManager(IMManagerConfig{Clock: f.sim, Machine: f.machine, Service: f.imSvc}); err == nil {
		t.Fatal("missing handle accepted")
	}
	if _, err := NewIMManager(IMManagerConfig{Handle: "x"}); err == nil {
		t.Fatal("missing deps accepted")
	}
	if _, err := NewEmailManager(EmailManagerConfig{Clock: f.sim, Machine: f.machine, Service: f.emSvc}); err == nil {
		t.Fatal("missing address accepted")
	}
	if _, err := NewEmailManager(EmailManagerConfig{Address: "x"}); err == nil {
		t.Fatal("missing deps accepted")
	}
}

func TestMonkeySweepDismissesKnownDialogs(t *testing.T) {
	f := newFixture(t)
	d := f.machine.Desktop()
	monkey := NewMonkey(f.sim, d, 20*time.Second, f.journal, SystemPairs()...)
	d.PopDialog("Low Disk Space", []string{"OK"}, nil, f.sim.Now())
	d.PopDialog("Mystery Box", []string{"Whatever"}, nil, f.sim.Now())
	if got := monkey.Sweep(); got != 1 {
		t.Fatalf("Sweep() = %d, want 1", got)
	}
	unhandled := monkey.Unhandled()
	if len(unhandled) != 1 || unhandled[0].Caption != "Mystery Box" {
		t.Fatalf("Unhandled() = %+v", unhandled)
	}
	if f.journal.Count(faults.KindDialogDismissed) != 1 {
		t.Fatal("dismissal not journaled")
	}
	// Register the unknown dialog's pair — the paper's fix for the two
	// unrecovered dialog failures — and sweep again.
	monkey.AddPair(CaptionButton{Caption: "Mystery Box", Button: "Whatever"})
	if got := monkey.Sweep(); got != 1 {
		t.Fatalf("Sweep() after AddPair = %d", got)
	}
	if len(monkey.Unhandled()) != 0 {
		t.Fatal("dialog still unhandled")
	}
	if len(monkey.Pairs()) != len(SystemPairs())+1 {
		t.Fatalf("Pairs() = %d entries", len(monkey.Pairs()))
	}
}

func TestMonkeyPeriodicSweep(t *testing.T) {
	f := newFixture(t)
	d := f.machine.Desktop()
	monkey := NewMonkey(f.sim, d, 20*time.Second, nil, SystemPairs()...)
	monkey.Start()
	defer monkey.Stop()
	monkey.Start() // idempotent
	d.PopDialog("System Error", []string{"OK"}, nil, f.sim.Now())
	f.sim.Advance(25 * time.Second)
	waitFor(t, func() bool { return len(d.Open()) == 0 })
}

func TestCallTimeoutHangDetection(t *testing.T) {
	f := newFixture(t)
	block := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := callTimeout(f.sim, 10*time.Second, errOnly(func() error {
			<-block
			return nil
		}))
		errCh <- err
	}()
	f.sim.Step(11 * time.Second)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientHung) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callTimeout did not fire")
	}
	close(block)
}

func TestIMManagerSendAndFetch(t *testing.T) {
	f := newFixture(t)
	buddy := f.newIMManager(t, "buddy")
	src := f.newIMManager(t, "source")

	seq, err := src.Send("buddy", "hello")
	if err != nil || seq != 1 {
		t.Fatalf("Send = %d, %v", seq, err)
	}
	f.sim.Advance(time.Second)
	awaitIM(t, buddy)
	msgs, err := buddy.FetchNew()
	if err != nil || len(msgs) != 1 || msgs[0].Text != "hello" {
		t.Fatalf("FetchNew = %+v, %v", msgs, err)
	}
	st, err := src.BuddyStatus("buddy")
	if err != nil || st != im.StatusOnline {
		t.Fatalf("BuddyStatus = %v, %v", st, err)
	}
	if src.Events() == nil {
		t.Fatal("Events() = nil on live manager")
	}
	if src.MemoryMB() <= 0 {
		t.Fatal("MemoryMB() = 0 on live manager")
	}
}

func TestIMManagerSanityHealsLogout(t *testing.T) {
	f := newFixture(t)
	m := f.newIMManager(t, "buddy")
	f.imSvc.ForceLogout("buddy")
	if err := m.Sanity(); err != nil {
		t.Fatalf("Sanity = %v", err)
	}
	if f.journal.Count(faults.KindRelogin) != 1 {
		t.Fatal("re-login not journaled")
	}
	ok, err := m.App().LoggedIn()
	if err != nil || !ok {
		t.Fatalf("LoggedIn = %v, %v", ok, err)
	}
}

func TestIMManagerSanityDetectsHangAsUnfixable(t *testing.T) {
	f := newFixture(t)
	m := f.newIMManager(t, "buddy")
	m.App().Hang()
	errCh := make(chan error, 1)
	go func() { errCh <- m.Sanity() }()
	f.sim.Step(11 * time.Second)
	select {
	case err := <-errCh:
		if !Unfixable(err) {
			t.Fatalf("Sanity on hung client = %v, want unfixable", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Sanity blocked")
	}
}

func TestIMManagerEnsureHealthyRestartsHungClient(t *testing.T) {
	f := newFixture(t)
	m := f.newIMManager(t, "buddy")
	oldPID := m.App().PID()
	m.App().Hang()
	errCh := make(chan error, 1)
	go func() { errCh <- m.EnsureHealthy() }()
	// Just past the hung call's 10 s timeout, and no further: the restart
	// needs no virtual time, and a longer step could fire its login's own
	// timeout before the login's goroutine has run.
	f.sim.Step(11 * time.Second)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("EnsureHealthy = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("EnsureHealthy blocked")
	}
	if m.App().PID() == oldPID {
		t.Fatal("client was not restarted")
	}
	if f.journal.Count(faults.KindClientRestart) != 1 {
		t.Fatal("restart not journaled")
	}
	ok, err := m.App().LoggedIn()
	if err != nil || !ok {
		t.Fatalf("new client LoggedIn = %v, %v", ok, err)
	}
}

func TestIMManagerEnsureHealthyRestartsDeadClient(t *testing.T) {
	f := newFixture(t)
	m := f.newIMManager(t, "buddy")
	m.App().Crash()
	if err := m.EnsureHealthy(); err != nil {
		t.Fatalf("EnsureHealthy = %v", err)
	}
	if !m.App().Running() {
		t.Fatal("client not relaunched")
	}
}

func TestIMManagerServiceOutageIsTransient(t *testing.T) {
	f := newFixture(t)
	m := f.newIMManager(t, "buddy")
	f.imSvc.Outage().Set(true, f.sim.Now())
	f.imSvc.ForceLogoutAll()
	err := m.Sanity()
	if err == nil {
		t.Fatal("Sanity succeeded during outage")
	}
	if Unfixable(err) {
		t.Fatalf("outage classified unfixable: %v", err)
	}
	f.imSvc.Outage().Set(false, f.sim.Now())
	if err := m.Sanity(); err != nil {
		t.Fatalf("Sanity after outage = %v", err)
	}
}

func TestIMManagerStartupDelayConsumesVirtualTime(t *testing.T) {
	f := newFixture(t)
	if err := f.imSvc.Register("slow"); err != nil {
		t.Fatal(err)
	}
	m, err := NewIMManager(IMManagerConfig{
		Clock:        f.sim,
		Machine:      f.machine,
		Service:      f.imSvc,
		Handle:       "slow",
		StartupDelay: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	go func() {
		if err := m.Start(); err != nil {
			t.Error(err)
		}
		done.Store(true)
	}()
	defer m.Stop()
	f.sim.Step(2 * time.Second)
	if done.Load() {
		t.Fatal("Start returned without consuming startup delay")
	}
	f.sim.Step(2 * time.Second)
	waitFor(t, done.Load)
}

func TestEmailManagerSendAndFetch(t *testing.T) {
	f := newFixture(t)
	buddy := f.newEmailManager(t, "buddy@sim")
	src := f.newEmailManager(t, "src@sim")
	if err := src.Send("buddy@sim", "subj", "body"); err != nil {
		t.Fatal(err)
	}
	f.sim.Advance(time.Minute)
	msgs, err := buddy.FetchNew()
	if err != nil || len(msgs) != 1 || msgs[0].Subject != "subj" {
		t.Fatalf("FetchNew = %+v, %v", msgs, err)
	}
	n, err := buddy.UnreadCount()
	if err != nil || n != 0 {
		t.Fatalf("UnreadCount = %d, %v", n, err)
	}
}

func TestEmailManagerSanityHealsDisconnect(t *testing.T) {
	f := newFixture(t)
	m := f.newEmailManager(t, "buddy@sim")
	if err := m.App().Disconnect(); err != nil {
		t.Fatal(err)
	}
	if err := m.Sanity(); err != nil {
		t.Fatalf("Sanity = %v", err)
	}
	ok, _ := m.App().Connected()
	if !ok {
		t.Fatal("not reconnected")
	}
	if f.journal.Count(faults.KindRelogin) != 1 {
		t.Fatal("reconnect not journaled")
	}
}

func TestEmailManagerEnsureHealthyRestartsCrashed(t *testing.T) {
	f := newFixture(t)
	m := f.newEmailManager(t, "buddy@sim")
	oldPID := m.App().PID()
	m.App().Crash()
	if err := m.EnsureHealthy(); err != nil {
		t.Fatalf("EnsureHealthy = %v", err)
	}
	if m.App().PID() == oldPID || !m.App().Running() {
		t.Fatal("client not restarted")
	}
}

func TestOnLaunchHookRuns(t *testing.T) {
	f := newFixture(t)
	if err := f.imSvc.Register("hooked"); err != nil {
		t.Fatal(err)
	}
	var launches atomic.Int32
	m, err := NewIMManager(IMManagerConfig{
		Clock:        f.sim,
		Machine:      f.machine,
		Service:      f.imSvc,
		Handle:       "hooked",
		StartupDelay: -1,
		OnLaunch:     func(*automation.IMClientApp) { launches.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := m.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := launches.Load(); got != 2 {
		t.Fatalf("OnLaunch ran %d times, want 2", got)
	}
}

// awaitIM waits, in bounded real time, for m's client to raise its new-IM
// event. The sim clock runs the IM hop's AfterFunc on a goroutine of its
// own, and the client's pump moves the message into its window on
// another: the yields after Advance do not guarantee either has run.
func awaitIM(t *testing.T, m *IMManager) {
	t.Helper()
	select {
	case <-m.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("no new-IM event in time")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestManagerAccessors(t *testing.T) {
	f := newFixture(t)
	im := f.newIMManager(t, "acc-buddy")
	em := f.newEmailManager(t, "acc@sim")
	if im.Handle() != "acc-buddy" || em.Address() != "acc@sim" {
		t.Fatalf("Handle/Address = %q/%q", im.Handle(), em.Address())
	}
	if im.Monkey() == nil || em.Monkey() == nil {
		t.Fatal("nil monkey")
	}
	if em.Events() == nil {
		t.Fatal("nil email events channel")
	}
	if em.MemoryMB() <= 0 {
		t.Fatal("email MemoryMB = 0")
	}
	n, err := im.UnreadCount()
	if err != nil || n != 0 {
		t.Fatalf("UnreadCount = %d, %v", n, err)
	}
}

func TestEmailManagerEnsureHealthyTransient(t *testing.T) {
	f := newFixture(t)
	m := f.newEmailManager(t, "tr@sim")
	// A healthy client: EnsureHealthy is a no-op.
	if err := m.EnsureHealthy(); err != nil {
		t.Fatal(err)
	}
	// Hang: EnsureHealthy must replace the client.
	old := m.App().PID()
	m.App().Hang()
	errCh := make(chan error, 1)
	go func() { errCh <- m.EnsureHealthy() }()
	// Just past the hung call's 10 s timeout, and no further: the restart
	// needs no virtual time, and a longer step could fire its login's own
	// timeout before the login's goroutine has run.
	f.sim.Step(11 * time.Second)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("EnsureHealthy blocked")
	}
	if m.App().PID() == old {
		t.Fatal("hung email client not replaced")
	}
}

func TestStoppedManagersRejectOps(t *testing.T) {
	f := newFixture(t)
	im := f.newIMManager(t, "stopped-buddy")
	em := f.newEmailManager(t, "stopped@sim")
	im.Stop()
	em.Stop()
	if _, err := im.Send("x", "y"); !errors.Is(err, ErrClientDead) {
		t.Fatalf("IM Send after Stop = %v", err)
	}
	if _, err := im.FetchNew(); !errors.Is(err, ErrClientDead) {
		t.Fatalf("IM FetchNew after Stop = %v", err)
	}
	if _, err := im.BuddyStatus("x"); !errors.Is(err, ErrClientDead) {
		t.Fatalf("IM BuddyStatus after Stop = %v", err)
	}
	if _, err := im.UnreadCount(); !errors.Is(err, ErrClientDead) {
		t.Fatalf("IM UnreadCount after Stop = %v", err)
	}
	if err := em.Send("a", "b", "c"); !errors.Is(err, ErrClientDead) {
		t.Fatalf("email Send after Stop = %v", err)
	}
	if _, err := em.FetchNew(); !errors.Is(err, ErrClientDead) {
		t.Fatalf("email FetchNew after Stop = %v", err)
	}
	if _, err := em.UnreadCount(); !errors.Is(err, ErrClientDead) {
		t.Fatalf("email UnreadCount after Stop = %v", err)
	}
	if err := im.Sanity(); !errors.Is(err, ErrClientDead) {
		t.Fatalf("IM Sanity after Stop = %v", err)
	}
	if err := em.Sanity(); !errors.Is(err, ErrClientDead) {
		t.Fatalf("email Sanity after Stop = %v", err)
	}
	if im.Events() != nil || em.Events() != nil {
		t.Fatal("Events() non-nil after Stop")
	}
	if im.MemoryMB() != 0 || em.MemoryMB() != 0 {
		t.Fatal("MemoryMB non-zero after Stop")
	}
}
