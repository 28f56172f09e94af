package proxy

import (
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
	"simba/internal/websim"
)

func TestExtractBlock(t *testing.T) {
	tests := []struct {
		content, start, end string
		want                string
		ok                  bool
	}{
		{"aaa<begin>inner<end>bbb", "<begin>", "<end>", "inner", true},
		{"head tail", "", "", "head tail", true},
		{"head STOP tail", "", " STOP", "head", true},
		{"lead START rest", "START ", "", "rest", true},
		{"no markers", "<begin>", "<end>", "", false},
		{"<begin>unterminated", "<begin>", "<end>", "", false},
		{"x<b>first<e>y<b>second<e>", "<b>", "<e>", "first", true},
	}
	for _, tt := range tests {
		got, ok := ExtractBlock(tt.content, tt.start, tt.end)
		if got != tt.want || ok != tt.ok {
			t.Fatalf("ExtractBlock(%q, %q, %q) = %q, %v; want %q, %v",
				tt.content, tt.start, tt.end, got, ok, tt.want, tt.ok)
		}
	}
}

// fixture delivers proxy alerts into a collector mailbox via an
// email-only target.
type fixture struct {
	t     *testing.T
	sim   *clock.Sim
	web   *websim.Web
	site  *websim.Site
	prox  *Proxy
	inbox *email.Mailbox

	mu      sync.Mutex
	reports []*core.Report
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	web, err := websim.New(sim, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	site, err := web.CreateSite("cnn")
	if err != nil {
		t.Fatal(err)
	}
	emSvc, err := email.NewService(email.Config{Clock: sim, RNG: dist.NewRNG(1), Delay: dist.Fixed(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := emSvc.CreateMailbox("collector@sim")
	if err != nil {
		t.Fatal(err)
	}
	sender, err := core.NewDirectEmail(emSvc, "proxy@sim")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(sim, nil, sender)
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("collector")
	if err := reg.Register(addr.Address{Type: addr.TypeEmail, Name: "inbox", Target: "collector@sim", Enabled: true}); err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{Name: "email", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "inbox"}}}}}
	target, err := core.NewTarget(engine, reg, mode)
	if err != nil {
		t.Fatal(err)
	}
	prox, err := New(sim, web, target)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, sim: sim, web: web, site: site, prox: prox, inbox: inbox}
	prox.OnReport = func(m Monitor, rep *core.Report, err error) {
		f.mu.Lock()
		f.reports = append(f.reports, rep)
		f.mu.Unlock()
	}
	t.Cleanup(prox.Stop)
	return f
}

func (f *fixture) receivedAlerts() []alert.Alert {
	f.t.Helper()
	var out []alert.Alert
	for _, msg := range f.inbox.Fetch() {
		var a alert.Alert
		if err := a.UnmarshalText([]byte(msg.Body)); err != nil {
			f.t.Fatalf("collector got non-alert mail: %v", err)
		}
		out = append(out, a)
	}
	return out
}

func electionMonitor() Monitor {
	return Monitor{
		Name:         "florida-recount",
		URL:          "cnn/election",
		PollEvery:    time.Second,
		StartKeyword: "[",
		EndKeyword:   "]",
		Source:       "alert-proxy",
		Keywords:     []string{"Election"},
		Urgency:      alert.UrgencyHigh,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestAddMonitorValidation(t *testing.T) {
	f := newFixture(t)
	bad := []Monitor{
		{},
		{Name: "x"},
		{Name: "x", URL: "u"},
		{Name: "x", URL: "u", PollEvery: time.Second},
	}
	for _, m := range bad {
		if err := f.prox.AddMonitor(m); err == nil {
			t.Fatalf("invalid monitor accepted: %+v", m)
		}
	}
	if err := f.prox.AddMonitor(electionMonitor()); err != nil {
		t.Fatal(err)
	}
}

func TestChangeDetectionAndAlert(t *testing.T) {
	f := newFixture(t)
	f.site.SetContent("election", "Results: [Gore 2000000, Bush 2000100] more", f.sim.Now())
	if err := f.prox.AddMonitor(electionMonitor()); err != nil {
		t.Fatal(err)
	}
	f.prox.Start()
	f.prox.Start() // idempotent

	// Baseline poll: no alert even after several polls.
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	if f.prox.AlertsSent() != 0 {
		t.Fatal("alert generated without a change")
	}
	// The recount updates.
	f.site.SetContent("election", "Results: [Gore 2000000, Bush 2000537] more", f.sim.Now())
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	if f.prox.AlertsSent() != 1 {
		t.Fatalf("AlertsSent = %d", f.prox.AlertsSent())
	}
	alerts := f.receivedAlerts()
	if len(alerts) != 1 {
		t.Fatalf("collector received %d alerts", len(alerts))
	}
	a := alerts[0]
	if a.Source != "alert-proxy" || a.Body != "Gore 2000000, Bush 2000537" || a.Urgency != alert.UrgencyHigh {
		t.Fatalf("alert = %+v", a)
	}
	// Change outside the block: no alert.
	f.site.SetContent("election", "Results: [Gore 2000000, Bush 2000537] other-noise", f.sim.Now())
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	if f.prox.AlertsSent() != 1 {
		t.Fatal("alert generated for out-of-block change")
	}
}

func TestSiteDowntimeTolerated(t *testing.T) {
	f := newFixture(t)
	f.site.SetContent("election", "[v1]", f.sim.Now())
	if err := f.prox.AddMonitor(electionMonitor()); err != nil {
		t.Fatal(err)
	}
	f.prox.Start()
	f.sim.RunFor(3*time.Second, 500*time.Millisecond)
	f.site.Down().Set(true, f.sim.Now())
	f.sim.RunFor(10*time.Second, time.Second)
	// Content changes while down.
	f.site.SetContent("election", "[v2]", f.sim.Now())
	f.site.Down().Set(false, f.sim.Now())
	f.sim.RunFor(5*time.Second, 500*time.Millisecond)
	if f.prox.AlertsSent() != 1 {
		t.Fatalf("AlertsSent = %d, want change detected after recovery", f.prox.AlertsSent())
	}
}

func TestMonitorAddedAfterStart(t *testing.T) {
	f := newFixture(t)
	f.prox.Start()
	f.site.SetContent("election", "[v1]", f.sim.Now())
	if err := f.prox.AddMonitor(electionMonitor()); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(3*time.Second, 500*time.Millisecond)
	f.site.SetContent("election", "[v2]", f.sim.Now())
	f.sim.RunFor(3*time.Second, 500*time.Millisecond)
	if f.prox.AlertsSent() != 1 {
		t.Fatalf("AlertsSent = %d", f.prox.AlertsSent())
	}
}

func TestUrgencyDefaultsToNormal(t *testing.T) {
	f := newFixture(t)
	m := electionMonitor()
	m.Urgency = 0
	f.site.SetContent("election", "[v1]", f.sim.Now())
	if err := f.prox.AddMonitor(m); err != nil {
		t.Fatal(err)
	}
	f.prox.Start()
	f.sim.RunFor(3*time.Second, 500*time.Millisecond)
	f.site.SetContent("election", "[v2]", f.sim.Now())
	f.sim.RunFor(3*time.Second, 500*time.Millisecond)
	alerts := f.receivedAlerts()
	if len(alerts) != 1 || alerts[0].Urgency != alert.UrgencyNormal {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestCommunityPhotoAlbumMonitor(t *testing.T) {
	// Section 2.2: a new photo added to the shared community album.
	f := newFixture(t)
	album, err := f.web.CreateSite("community")
	if err != nil {
		t.Fatal(err)
	}
	album.SetContent("album", "<photos>3 photos</photos>", f.sim.Now())
	if err := f.prox.AddMonitor(Monitor{
		Name: "family-album", URL: "community/album", PollEvery: 5 * time.Second,
		StartKeyword: "<photos>", EndKeyword: "</photos>",
		Source: "web-store", Keywords: []string{"Community"},
	}); err != nil {
		t.Fatal(err)
	}
	f.prox.Start()
	f.sim.RunFor(12*time.Second, time.Second)
	album.SetContent("album", "<photos>4 photos</photos>", f.sim.Now())
	f.sim.RunFor(12*time.Second, time.Second)
	alerts := f.receivedAlerts()
	if len(alerts) != 1 || alerts[0].Body != "4 photos" {
		t.Fatalf("alerts = %+v", alerts)
	}
}
