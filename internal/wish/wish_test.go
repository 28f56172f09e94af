package wish

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/email"
)

func testModel() Model {
	return Model{
		APs: []AP{
			{ID: "ap-1", X: 0, Y: 0},
			{ID: "ap-2", X: 40, Y: 0},
			{ID: "ap-3", X: 0, Y: 30},
			{ID: "ap-4", X: 40, Y: 30},
		},
		NoiseStddevDB: 1,
	}
}

func testZones() []Zone {
	return []Zone{
		{Name: "building-west", MinX: 0, MinY: 0, MaxX: 20, MaxY: 30},
		{Name: "building-east", MinX: 20, MinY: 0, MaxX: 40, MaxY: 30},
	}
}

type fixture struct {
	t      *testing.T
	sim    *clock.Sim
	server *Server
	inbox  *email.Mailbox

	mu     sync.Mutex
	alerts []*alert.Alert
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	emSvc, err := email.NewService(email.Config{Clock: sim, RNG: dist.NewRNG(1), Delay: dist.Fixed(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := emSvc.CreateMailbox("buddy@sim")
	if err != nil {
		t.Fatal(err)
	}
	sender, err := core.NewDirectEmail(emSvc, "wish@sim")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(sim, nil, sender)
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("buddy")
	if err := reg.Register(addr.Address{Type: addr.TypeEmail, Name: "Buddy email", Target: "buddy@sim", Enabled: true}); err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{Name: "email", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "Buddy email"}}}}}
	target, err := core.NewTarget(engine, reg, mode)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, sim: sim, inbox: inbox}
	server, err := NewServer(ServerConfig{
		Clock:  sim,
		RNG:    dist.NewRNG(2),
		Model:  testModel(),
		Zones:  testZones(),
		Target: target,
		OnReport: func(a *alert.Alert, rep *core.Report, err error) {
			f.mu.Lock()
			f.alerts = append(f.alerts, a)
			f.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.server = server
	return f
}

func TestNewServerValidation(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewServer(ServerConfig{Clock: sim, RNG: dist.NewRNG(1)}); err == nil {
		t.Fatal("model without APs accepted")
	}
}

func TestLocateAccuracy(t *testing.T) {
	f := newFixture(t)
	rng := dist.NewRNG(42)
	model := f.server.model
	// Localize many random true positions; the estimate should land
	// within a few meters (paper: "to within a few meters").
	var worst float64
	for i := 0; i < 50; i++ {
		tx := rng.Float64() * 40
		ty := rng.Float64() * 30
		est, err := f.server.Locate(model.SignalAt(tx, ty, rng))
		if err != nil {
			t.Fatal(err)
		}
		errDist := math.Hypot(est.X-tx, est.Y-ty)
		if errDist > worst {
			worst = errDist
		}
		if est.Confidence < 0 || est.Confidence > 100 {
			t.Fatalf("confidence = %v", est.Confidence)
		}
	}
	if worst > 10 {
		t.Fatalf("worst localization error = %.1fm, want within a few meters", worst)
	}
}

func TestLocateRejectsWrongVectorLength(t *testing.T) {
	f := newFixture(t)
	if _, err := f.server.Locate([]float64{-50}); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
}

func TestZoneAssignment(t *testing.T) {
	f := newFixture(t)
	if got := f.server.zoneOf(5, 5); got != "building-west" {
		t.Fatalf("zoneOf(5,5) = %q", got)
	}
	if got := f.server.zoneOf(30, 5); got != "building-east" {
		t.Fatalf("zoneOf(30,5) = %q", got)
	}
	if got := f.server.zoneOf(-10, -10); got != OutsideZone {
		t.Fatalf("zoneOf outside = %q", got)
	}
}

func TestUpdateWritesSoftState(t *testing.T) {
	f := newFixture(t)
	rng := dist.NewRNG(3)
	strengths := f.server.model.SignalAt(10, 15, rng)
	var est Estimate
	f.sim.Go(func() {
		var err error
		if est, err = f.server.Update("yimin", strengths); err != nil {
			t.Error(err)
		}
	})
	f.sim.RunFor(2*time.Second, 250*time.Millisecond)
	if est.Zone != "building-west" {
		t.Fatalf("estimate zone = %q", est.Zone)
	}
	v, err := f.server.Store().Read("wish/user/yimin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v, "building-west|") {
		t.Fatalf("stored value = %q", v)
	}
}

func TestTrackingAlertsOnZoneTransitions(t *testing.T) {
	f := newFixture(t)
	f.server.Track("yimin", "paramvir")
	f.server.Track("yimin", "paramvir") // idempotent
	rng := dist.NewRNG(4)
	c, err := NewClient(f.sim, rng, f.server, "yimin", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.MoveTo(10, 15) // center of building-west
	c.Start()
	defer c.Stop()
	f.sim.RunFor(10*time.Second, 500*time.Millisecond)
	if f.server.AlertsSent() != 0 {
		t.Fatal("alert without a transition")
	}
	// Move to the east wing.
	c.MoveTo(30, 15)
	f.sim.RunFor(10*time.Second, 500*time.Millisecond)
	f.mu.Lock()
	n := len(f.alerts)
	var first *alert.Alert
	if n > 0 {
		first = f.alerts[0]
	}
	f.mu.Unlock()
	if n != 1 || first == nil {
		t.Fatalf("alerts = %d", n)
	}
	if first.Subject != "yimin moved to building-east" {
		t.Fatalf("subject = %q", first.Subject)
	}
	// Leave the building entirely.
	c.MoveTo(200, 200)
	f.sim.RunFor(10*time.Second, 500*time.Millisecond)
	f.mu.Lock()
	last := f.alerts[len(f.alerts)-1]
	f.mu.Unlock()
	if !strings.Contains(last.Subject, "left") {
		t.Fatalf("subject = %q", last.Subject)
	}
	// Re-enter.
	c.MoveTo(10, 15)
	f.sim.RunFor(10*time.Second, 500*time.Millisecond)
	f.mu.Lock()
	last = f.alerts[len(f.alerts)-1]
	f.mu.Unlock()
	if !strings.Contains(last.Subject, "entered") {
		t.Fatalf("subject = %q", last.Subject)
	}
}

func TestNoAlertsWithoutTrackers(t *testing.T) {
	f := newFixture(t)
	rng := dist.NewRNG(5)
	c, err := NewClient(f.sim, rng, f.server, "ghost-user", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.MoveTo(5, 5)
	c.Start()
	defer c.Stop()
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	c.MoveTo(35, 5)
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	if f.server.AlertsSent() != 0 {
		t.Fatal("untracked user generated alerts")
	}
}

func TestUntrack(t *testing.T) {
	f := newFixture(t)
	f.server.Track("u", "s")
	f.server.Untrack("u", "s")
	f.server.Untrack("u", "never-there")
	rng := dist.NewRNG(6)
	c, _ := NewClient(f.sim, rng, f.server, "u", time.Second)
	c.MoveTo(5, 5)
	c.Start()
	defer c.Stop()
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	c.MoveTo(35, 5)
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	if f.server.AlertsSent() != 0 {
		t.Fatal("untracked subscription fired")
	}
}

func TestSilentClientExpiresSoftState(t *testing.T) {
	f := newFixture(t)
	rng := dist.NewRNG(7)
	c, _ := NewClient(f.sim, rng, f.server, "u", 2*time.Second)
	c.MoveTo(5, 5)
	c.Start()
	f.sim.RunFor(10*time.Second, 500*time.Millisecond)
	if _, err := f.server.Store().Read("wish/user/u"); err != nil {
		t.Fatalf("live user unreadable: %v", err)
	}
	c.Stop()
	// Refresh 10s × (2+1) = 30s deadline.
	f.sim.RunFor(time.Minute, 2*time.Second)
	expired, err := f.server.Store().Expired("wish/user/u")
	if err != nil || !expired {
		t.Fatalf("Expired = %v, %v", expired, err)
	}
}

func TestClientValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewClient(nil, nil, nil, "", 0); err == nil {
		t.Fatal("nil deps accepted")
	}
	if _, err := NewClient(f.sim, dist.NewRNG(1), f.server, "", 0); err == nil {
		t.Fatal("empty user accepted")
	}
}

func TestTransitionKindString(t *testing.T) {
	for _, tt := range []struct {
		k    TransitionKind
		want string
	}{
		{TransitionEnter, "entered"}, {TransitionMove, "moved to"},
		{TransitionLeave, "left"}, {TransitionKind(9), "transition(9)"},
	} {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("String = %q", got)
		}
	}
}
