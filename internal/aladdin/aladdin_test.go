package aladdin

import (
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

// fixture delivers home alerts into a collector mailbox.
type fixture struct {
	t     *testing.T
	sim   *clock.Sim
	home  *Home
	emSvc *email.Service
	inbox *email.Mailbox

	mu      sync.Mutex
	alerts  []*alert.Alert
	reports []*core.Report
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
	sender, err := core.NewDirectEmail(emSvc, "home@sim")
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
	f := &fixture{t: t, sim: sim, emSvc: emSvc, inbox: inbox}
	home, err := New(Config{
		Clock:  sim,
		RNG:    dist.NewRNG(2),
		Target: target,
		OnReport: func(a *alert.Alert, rep *core.Report, err error) {
			f.mu.Lock()
			f.alerts = append(f.alerts, a)
			f.reports = append(f.reports, rep)
			f.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.home = home
	return f
}

func (f *fixture) sentAlerts() []*alert.Alert {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*alert.Alert(nil), f.alerts...)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestAddSensor(t *testing.T) {
	f := newFixture(t)
	if _, err := f.home.AddSensor("", true); err == nil {
		t.Fatal("unnamed sensor accepted")
	}
	s, err := f.home.AddSensor("basement-water", true)
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != "OFF" || !s.BatteryOK() || !s.Critical {
		t.Fatalf("sensor = %+v", s)
	}
	if _, err := f.home.AddSensor("basement-water", true); err == nil {
		t.Fatal("duplicate sensor accepted")
	}
	if _, ok := f.home.Sensor("basement-water"); !ok {
		t.Fatal("Sensor lookup failed")
	}
}

func TestCriticalSensorAlertChain(t *testing.T) {
	f := newFixture(t)
	if _, err := f.home.AddSensor("basement-water", true); err != nil {
		t.Fatal(err)
	}
	// Let the initial write replicate quietly (it is a Created event for
	// a critical sensor, producing the install-time alert).
	f.sim.RunFor(10*time.Second, time.Second)
	preexisting := f.home.AlertsSent()

	start := f.sim.Now()
	if err := f.home.TriggerSensor("basement-water", "ON"); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(15*time.Second, 500*time.Millisecond)
	alerts := f.sentAlerts()
	if f.home.AlertsSent() != preexisting+1 || len(alerts) < 1 {
		t.Fatalf("AlertsSent = %d", f.home.AlertsSent())
	}
	last := alerts[len(alerts)-1]
	if last.Subject != "Basement Water Sensor ON" {
		t.Fatalf("subject = %q", last.Subject)
	}
	if last.Keywords[0] != "Sensor ON" || last.Urgency != alert.UrgencyCritical {
		t.Fatalf("alert = %+v", last)
	}
	// Chain latency: RF 1s + powerline 2s + processing 1s + phoneline 3s = 7s.
	if got := last.Created.Sub(start); got < 6*time.Second || got > 9*time.Second {
		t.Fatalf("sensor→alert latency = %v, want ~7s", got)
	}
}

func TestNonCriticalSensorStaysQuiet(t *testing.T) {
	f := newFixture(t)
	if _, err := f.home.AddSensor("hallway-light", false); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(10*time.Second, time.Second)
	before := f.home.AlertsSent()
	if err := f.home.TriggerSensor("hallway-light", "ON"); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(15*time.Second, time.Second)
	if f.home.AlertsSent() != before {
		t.Fatal("non-critical sensor raised an alert")
	}
}

func TestTriggerUnknownSensor(t *testing.T) {
	f := newFixture(t)
	if err := f.home.TriggerSensor("ghost", "ON"); err == nil {
		t.Fatal("unknown sensor accepted")
	}
	if err := f.home.SetBattery("ghost", false); err == nil {
		t.Fatal("unknown sensor battery accepted")
	}
}

func TestDisarmScenario(t *testing.T) {
	f := newFixture(t)
	start := f.sim.Now()
	f.home.PressRemote(false)
	f.sim.RunFor(15*time.Second, 500*time.Millisecond)
	alerts := f.sentAlerts()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts", len(alerts))
	}
	a := alerts[0]
	if !strings.Contains(a.Subject, "disarmed") || a.Keywords[0] != "Security" {
		t.Fatalf("alert = %+v", a)
	}
	if got := a.Created.Sub(start); got < 6*time.Second || got > 9*time.Second {
		t.Fatalf("remote→alert latency = %v", got)
	}
}

func TestDeadBatterySensorBrokenAlert(t *testing.T) {
	f := newFixture(t)
	if _, err := f.home.AddSensor("garage-door", false); err != nil {
		t.Fatal(err)
	}
	f.home.StartHeartbeats()
	defer f.home.StopHeartbeats()
	// Healthy heartbeats: no expiry for many periods.
	f.sim.RunFor(3*time.Minute, 10*time.Second)
	if got := f.home.AlertsSent(); got != 0 {
		t.Fatalf("alerts with healthy battery = %d", got)
	}
	// Battery dies: refresh stops; deadline = 30s × 4 = 2min.
	if err := f.home.SetBattery("garage-door", false); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(5*time.Minute, 10*time.Second)
	alerts := f.sentAlerts()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts", len(alerts))
	}
	if alerts[0].Subject != "Garage Door Sensor Broken" {
		t.Fatalf("subject = %q", alerts[0].Subject)
	}
	if alerts[0].Keywords[0] != "Sensor Broken" {
		t.Fatalf("keywords = %v", alerts[0].Keywords)
	}
}

func TestAlertsReachTheBuddyMailbox(t *testing.T) {
	f := newFixture(t)
	f.home.PressRemote(true)
	f.sim.RunFor(20*time.Second, time.Second)
	msgs := f.inbox.Fetch()
	if len(msgs) != 1 {
		t.Fatalf("buddy mailbox has %d messages", len(msgs))
	}
	var a alert.Alert
	if err := a.UnmarshalText([]byte(msgs[0].Body)); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if a.Source != "aladdin" {
		t.Fatalf("source = %q", a.Source)
	}
}

func TestNaiveRedundantMode(t *testing.T) {
	m := NaiveRedundantMode("Work email", "Home email", "Cell SMS", "Cell SMS 2")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Blocks) != 1 || len(m.Blocks[0].Actions) != 4 {
		t.Fatalf("mode shape = %+v", m)
	}
}

func TestTitleHelper(t *testing.T) {
	for in, want := range map[string]string{
		"basement-water": "Basement Water",
		"garage-door":    "Garage Door",
		"x":              "X",
		"a--b":           "A  B",
	} {
		if got := title(in); got != want {
			t.Fatalf("title(%q) = %q, want %q", in, got, want)
		}
	}
}
