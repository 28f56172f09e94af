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
	if n := len(d.Open()); n != 0 {
		t.Fatalf("%d dialogs open after a sweep", n)
	}
}

func TestCallTimeoutHangDetection(t *testing.T) {
	f := newFixture(t)
	block := make(chan struct{})
	var err error
	f.sim.Go(func() {
		_, err = callTimeout(f.sim, 10*time.Second, errOnly(func() error {
			clock.Wait(f.sim, block)
			return nil
		}))
	})
	f.sim.Advance(11 * time.Second)
	if !errors.Is(err, ErrClientHung) {
		t.Fatalf("err = %v, want ErrClientHung", err)
	}
	close(block)
	clock.Notify(f.sim, block)
	f.sim.Advance(0)
	if n := f.sim.Actors(); n != 0 {
		t.Fatalf("%d actors live once the hung op returned, want 0", n)
	}
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

// awaitIM fails unless m's client has raised its new-IM event.
func awaitIM(t *testing.T, m *IMManager) {
	t.Helper()
	select {
	case <-m.Events():
	default:
		t.Fatal("no new-IM event")
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
