// Package harness builds the paper's Figure-5 experimental testbed —
// information alert proxy, web-store proxy, Aladdin home gateway, WISH
// location server and desktop assistant, all delivering through one
// MyAlertBuddy (supervised by a Master Daemon Controller) to a
// simulated end user — and reproduces every quantitative result in
// Section 5 plus the baseline comparison motivated by Section 2.3 and
// the portal-scale workload from Section 1.
package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"simba/internal/addr"
	"simba/internal/aladdin"
	"simba/internal/alert"
	"simba/internal/assistant"
	"simba/internal/automation"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/enduser"
	"simba/internal/mab"
	"simba/internal/mdc"
	"simba/internal/proxy"
	"simba/internal/sms"
	"simba/internal/wish"
	"simba/internal/world"
	"simba/internal/world/wiring"
)

// Canonical testbed addresses.
const (
	BuddyIMHandle  = "my-alert-buddy"
	BuddyEmailAddr = "buddy@simba.sim"
	UserName       = "alice"
	UserIMHandle   = "alice-im"
	UserEmailAddr  = "alice@work.sim"
	UserHomeEmail  = "alice@home.sim"
	UserPhone      = "4255551234"
	SourceIMHandle = "simba-sources"
	SourceEmail    = "sources@simba.sim"
)

// Options tunes the testbed.
type Options struct {
	// World is the substrate's seed (default 1) and delay model: the
	// baseline comparison sets HeavyTails; the default fixed short
	// delays keep the latency experiments deterministic.
	World world.Options
	// TempDir holds the pessimistic log (required).
	TempDir string
	// StartMDC supervises the buddy with a watchdog. Without it the
	// buddy is started directly (simpler experiments).
	StartMDC bool
	// DisableReplay is passed through to the buddy (ablation).
	DisableReplay bool
	// RouteDelay is the buddy's per-alert routing-processing cost
	// (default 600ms, calibrated to the paper's 2.5s proxy→user
	// budget; the plog ablation raises it).
	RouteDelay time.Duration
	// DialogPeriod overrides the monkey thread's 20s dialog sweep
	// (set very large to effectively disable it — ablation).
	DialogPeriod time.Duration
	// ProbePeriod overrides the MDC's 3-minute AreYouWorking period
	// (ablation sweep).
	ProbePeriod time.Duration
}

// ackTimeout is the IM block timeout of the sources' target and of the
// user's Urgent mode.
const ackTimeout = 15 * time.Second

// Testbed is the wired deployment on one simulated world. The buddy
// never runs its 23:30 rejuvenation here, so it cannot interfere with
// an experiment.
type Testbed struct {
	*world.World
	Opts Options
	RNG  *dist.RNG

	Buddy *mab.Service
	MDC   *mdc.Controller
	User  *enduser.User

	// Src is the shared source-side plumbing; Src.Target is the buddy
	// as sources see it.
	Src *wiring.SourceLink

	// Sources.
	Proxy     *proxy.Proxy
	Home      *aladdin.Home
	Wish      *wish.Server
	Assistant *assistant.Assistant

	// Receive/delivery observations.
	receives  chan receiveStamp
	OnReceive func(a *alert.Alert, at time.Time)
	// OnIMLaunch, when set before Start, runs against every freshly
	// launched buddy IM client instance (fault injection).
	OnIMLaunch func(app *automation.IMClientApp)

	appMu     sync.Mutex
	lastIMApp *automation.IMClientApp
}

type receiveStamp struct {
	key string
	at  time.Time
}

// currentIMApp returns the buddy's most recently launched IM client
// instance (nil before the first launch).
func (tb *Testbed) currentIMApp() *automation.IMClientApp {
	tb.appMu.Lock()
	defer tb.appMu.Unlock()
	return tb.lastIMApp
}

// buildSteps are NewTestbed's steps after the world, in order.
var buildSteps = []func(*Testbed) error{(*Testbed).buildBuddy, (*Testbed).buildUser, (*Testbed).buildSources}

// NewTestbed wires the full topology. Call Start afterwards.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.TempDir == "" {
		return nil, errors.New("harness: Options.TempDir is required")
	}
	if err := os.MkdirAll(opts.TempDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating temp dir: %w", err)
	}
	if opts.RouteDelay == 0 {
		opts.RouteDelay = 600 * time.Millisecond
	}
	w, err := world.New(opts.World)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{World: w, Opts: opts, RNG: world.RNG(w, 0), receives: make(chan receiveStamp, 4096)}
	for _, build := range buildSteps {
		if err := build(tb); err != nil {
			w.Close()
			return nil, err
		}
	}
	return tb, nil
}

func (tb *Testbed) buildBuddy() error {
	cfg, err := wiring.BuddyConfig(tb.World, BuddyIMHandle, BuddyEmailAddr, filepath.Join(tb.Opts.TempDir, "buddy.plog"))
	if err != nil {
		return err
	}
	cfg.LogDelay = 500 * time.Millisecond
	cfg.RouteDelay = tb.Opts.RouteDelay
	cfg.DialogPeriod = tb.Opts.DialogPeriod
	cfg.StartupDelay = 3 * time.Second
	cfg.CallTimeout = 10 * time.Second
	cfg.RejuvenationTime = -1
	cfg.DisableReplay = tb.Opts.DisableReplay
	cfg.OnIMLaunch = func(app *automation.IMClientApp) {
		tb.appMu.Lock()
		tb.lastIMApp = app
		tb.appMu.Unlock()
		if tb.OnIMLaunch != nil {
			tb.OnIMLaunch(app)
		}
	}
	cfg.OnReceive = func(a *alert.Alert, at time.Time) {
		if tb.OnReceive != nil {
			tb.OnReceive(a, at)
		}
		select {
		case tb.receives <- receiveStamp{key: a.DedupKey(), at: at}:
		default:
		}
	}
	buddy, err := mab.New(cfg)
	if err != nil {
		return err
	}
	tb.Buddy = buddy

	// Accepted sources and their keyword extraction rules.
	for _, rule := range []mab.SourceRule{
		{Source: "alert-proxy", Extract: mab.ExtractNative},
		{Source: "web-store", Extract: mab.ExtractNative},
		{Source: "aladdin", Extract: mab.ExtractNative},
		{Source: "wish", Extract: mab.ExtractNative},
		{Source: "desktop-assistant", Extract: mab.ExtractSubject},
		{Source: "yahoo.sim", Extract: mab.ExtractSender},
		{Source: "bench", Extract: mab.ExtractNative},
	} {
		buddy.Classifier().Accept(rule)
	}
	// Personal categories.
	agg := buddy.Aggregator()
	agg.Map("Election", "News")
	agg.Map("PlayStation2", "Shopping")
	agg.Map("Community", "Family")
	agg.Map("Sensor ON", "HomeEmergency")
	agg.Map("Sensor OFF", "HomeStatus")
	agg.Map("Sensor Broken", "HomeStatus")
	agg.Map("Security", "HomeEmergency")
	agg.Map("Location", "People")
	agg.Map("Email", "Work")
	agg.Map("Reminder", "Work")
	agg.Map("stocks", "Investment")
	agg.Map("Bench", "Bench")

	// The user's profile at the buddy.
	profile, err := buddy.Store().RegisterUser(UserName)
	if err != nil {
		return err
	}
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "MSN IM", Target: UserIMHandle, Enabled: true},
		{Type: addr.TypeSMS, Name: "Cell SMS", Target: sms.GatewayAddress(UserPhone), Enabled: true},
		{Type: addr.TypeEmail, Name: "Work email", Target: UserEmailAddr, Enabled: true},
		{Type: addr.TypeEmail, Name: "Home email", Target: UserHomeEmail, Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			return err
		}
	}
	urgent := &dmode.Mode{Name: "Urgent", Blocks: []dmode.Block{
		{Timeout: dmode.Duration(ackTimeout), Actions: []dmode.Action{{Address: "MSN IM"}}},
		{Actions: []dmode.Action{{Address: "Cell SMS"}}},
		{Actions: []dmode.Action{{Address: "Work email"}, {Address: "Home email"}}},
	}}
	relaxed := &dmode.Mode{Name: "Relaxed", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "Work email"}}},
	}}
	for _, m := range []*dmode.Mode{urgent, relaxed} {
		if err := profile.DefineMode(m); err != nil {
			return err
		}
	}
	for category, mode := range map[string]string{
		"News": "Urgent", "Shopping": "Urgent", "Family": "Relaxed",
		"HomeEmergency": "Urgent", "HomeStatus": "Relaxed",
		"People": "Urgent", "Work": "Urgent", "Investment": "Urgent",
		"Bench": "Urgent",
	} {
		if err := buddy.Store().Subscribe(category, UserName, mode); err != nil {
			return err
		}
	}

	if tb.Opts.StartMDC {
		tb.MDC, err = wiring.NewWatchdog(tb.World, buddy, tb.Opts.ProbePeriod)
	}
	return err
}

func (tb *Testbed) buildUser() error {
	if err := tb.CreatePersonalAccounts(UserIMHandle, []string{UserEmailAddr, UserHomeEmail}, UserPhone); err != nil {
		return err
	}
	cfg := wiring.UserConfig(tb.World)
	cfg.Name, cfg.IMHandle, cfg.PhoneNumber = UserName, UserIMHandle, UserPhone
	cfg.EmailAddresses = []string{UserEmailAddr, UserHomeEmail}
	cfg.EmailCheckPeriod, cfg.SMSReadDelay = time.Minute, 10*time.Second
	var err error
	tb.User, err = enduser.New(cfg)
	return err
}

func (tb *Testbed) buildSources() error {
	src, err := wiring.NewSourceLink(tb.World, SourceIMHandle, SourceEmail, BuddyIMHandle, BuddyEmailAddr, ackTimeout)
	if err != nil {
		return err
	}
	tb.Src = src
	target := src.Target

	// Alert proxy over the simulated web.
	tb.Proxy, err = proxy.New(tb.Clock, tb.Web, target)
	if err != nil {
		return err
	}

	// Aladdin home.
	tb.Home, err = aladdin.New(aladdin.Config{
		Clock:           tb.Clock,
		RNG:             world.RNG(tb.World, 4),
		Target:          target,
		ProcessingDelay: 2 * time.Second,
		PhonelineDelay:  3500 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	// WISH location service: two-wing building.
	tb.Wish, err = wish.NewServer(wish.ServerConfig{
		Clock: tb.Clock,
		RNG:   world.RNG(tb.World, 5),
		Model: wish.Model{
			APs: []wish.AP{
				{ID: "ap-1", X: 0, Y: 0}, {ID: "ap-2", X: 40, Y: 0},
				{ID: "ap-3", X: 0, Y: 30}, {ID: "ap-4", X: 40, Y: 30},
			},
			NoiseStddevDB: 1,
		},
		Zones: []wish.Zone{
			{Name: "building-west", MinX: 0, MinY: 0, MaxX: 20, MaxY: 30},
			{Name: "building-east", MinX: 20, MinY: 0, MaxX: 40, MaxY: 30},
		},
		Target:       target,
		ProcessDelay: 2 * time.Second,
	})
	if err != nil {
		return err
	}

	// Desktop assistant.
	tb.Assistant, err = assistant.New(assistant.Config{
		Clock:  tb.Clock,
		Target: target,
	})
	return err
}

// Start brings the deployment up: the user endpoint, the source
// endpoint, and the buddy (under the MDC when configured). It advances
// virtual time far enough for the buddy to finish its startup delays.
func (tb *Testbed) Start() error {
	if err := tb.User.Start(); err != nil {
		return err
	}
	if err := tb.Src.IM.Start(); err != nil {
		return err
	}
	if tb.MDC == nil {
		var startErr error
		if err := tb.Clock.Drive(func() { startErr = tb.Buddy.Start() }, time.Second); err != nil {
			return fmt.Errorf("harness: buddy start: %w", err)
		}
		return startErr
	}
	tb.MDC.Start()
	tb.Clock.RunFor(20*time.Second, time.Second)
	if !tb.Buddy.Running() {
		return errors.New("harness: buddy did not come up under MDC")
	}
	return nil
}

// Stop tears the deployment down.
func (tb *Testbed) Stop() {
	if tb.MDC != nil {
		tb.MDC.Stop()
	} else {
		tb.Buddy.Kill()
	}
	tb.Proxy.Stop()
	tb.Home.StopHeartbeats()
	tb.User.Stop()
	tb.Src.IM.Stop()
	tb.Close()
}

// WaitReceive blocks (driving the clock) until the buddy reports
// receiving the alert with the given dedup key, returning the arrival
// stamp.
func (tb *Testbed) WaitReceive(key string, maxVirtual time.Duration) (time.Time, error) {
	var at time.Time
	found := tb.Clock.RunUntil(func() bool {
		for {
			select {
			case st := <-tb.receives:
				if st.key == key {
					at = st.at
					return true
				}
			default:
				return false
			}
		}
	}, 100*time.Millisecond, maxVirtual)
	if !found {
		return time.Time{}, fmt.Errorf("harness: alert %s never reached the buddy", key)
	}
	return at, nil
}
