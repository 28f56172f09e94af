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
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/email"
	"simba/internal/enduser"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/mdc"
	"simba/internal/proxy"
	"simba/internal/sms"
	"simba/internal/websim"
	"simba/internal/wish"
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
	// Seed drives all randomness (default 1).
	Seed int64
	// TempDir holds the pessimistic log (required).
	TempDir string
	// HeavyTails selects realistic heavy-tailed email/SMS delay
	// distributions with loss (for the baseline comparison); the
	// default uses fixed short delays so latency experiments are
	// deterministic.
	HeavyTails bool
	// EmailLoss / SMSLoss override the loss probabilities when
	// HeavyTails is set (defaults 0.02 / 0.05).
	EmailLoss, SMSLoss float64
	// AckTimeout is the IM block timeout used by sources and by the
	// user's delivery mode (default 15s).
	AckTimeout time.Duration
	// StartMDC supervises the buddy with a watchdog. Without it the
	// buddy is started directly (simpler experiments).
	StartMDC bool
	// DisableNightly disables the 23:30 rejuvenation (kept disabled by
	// default in latency experiments so it cannot interfere; the month
	// experiment controls it explicitly).
	EnableNightly bool
	// DisableReplay is passed through to the buddy (ablation).
	DisableReplay bool
	// BuddyPollPeriod overrides the buddy's fallback poll (default 30s).
	BuddyPollPeriod time.Duration
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

// Testbed is the wired deployment.
type Testbed struct {
	Opts    Options
	Sim     *clock.Sim
	RNG     *dist.RNG
	Machine *automation.Machine
	IMSvc   *im.Service
	EmSvc   *email.Service
	Carrier *sms.Carrier
	Journal *faults.Journal

	Buddy *mab.Service
	MDC   *mdc.Controller
	User  *enduser.User

	// Shared source-side plumbing.
	SrcEngine *core.Engine
	SrcIM     *core.DirectIM
	Target    *core.Target // the buddy, as sources see it

	// Sources.
	Web       *websim.Web
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

// NewTestbed wires the full topology. Call Start afterwards.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.TempDir == "" {
		return nil, errors.New("harness: Options.TempDir is required")
	}
	if err := os.MkdirAll(opts.TempDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating temp dir: %w", err)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 15 * time.Second
	}
	if opts.EmailLoss == 0 {
		opts.EmailLoss = 0.02
	}
	if opts.SMSLoss == 0 {
		opts.SMSLoss = 0.05
	}
	if opts.RouteDelay == 0 {
		opts.RouteDelay = 600 * time.Millisecond
	}
	tb := &Testbed{
		Opts:     opts,
		Sim:      clock.NewSim(time.Time{}),
		RNG:      dist.NewRNG(opts.Seed),
		Journal:  &faults.Journal{},
		receives: make(chan receiveStamp, 4096),
	}
	tb.Machine = automation.NewMachine(tb.Sim)

	var err error
	tb.IMSvc, err = im.NewService(im.Config{
		Clock:    tb.Sim,
		RNG:      dist.NewRNG(opts.Seed + 1),
		HopDelay: dist.Normal{Mean: 300 * time.Millisecond, Stddev: 80 * time.Millisecond, Floor: 100 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	emailDelay := dist.Dist(dist.Fixed(20 * time.Second))
	smsDelay := dist.Dist(dist.Fixed(8 * time.Second))
	emailLoss, smsLoss := 0.0, 0.0
	if opts.HeavyTails {
		emailDelay = dist.LogNormal{Mu: 3.0, Sigma: 1.6}
		mix, merr := dist.NewMixture(
			dist.Component{Weight: 0.85, Dist: dist.Normal{Mean: 8 * time.Second, Stddev: 4 * time.Second, Floor: time.Second}},
			dist.Component{Weight: 0.15, Dist: dist.LogNormal{Mu: 5.5, Sigma: 1.5}},
		)
		if merr != nil {
			return nil, merr
		}
		smsDelay = mix
		emailLoss, smsLoss = opts.EmailLoss, opts.SMSLoss
	}
	tb.EmSvc, err = email.NewService(email.Config{
		Clock:           tb.Sim,
		RNG:             dist.NewRNG(opts.Seed + 2),
		Delay:           emailDelay,
		LossProbability: emailLoss,
	})
	if err != nil {
		return nil, err
	}
	tb.Carrier, err = sms.NewCarrier(sms.Config{
		Clock:           tb.Sim,
		RNG:             dist.NewRNG(opts.Seed + 3),
		Delay:           smsDelay,
		LossProbability: smsLoss,
	})
	if err != nil {
		return nil, err
	}

	// Accounts.
	for _, h := range []string{BuddyIMHandle, UserIMHandle, SourceIMHandle} {
		if err := tb.IMSvc.Register(h); err != nil {
			return nil, err
		}
	}
	for _, a := range []string{BuddyEmailAddr, UserEmailAddr, UserHomeEmail, SourceEmail} {
		if _, err := tb.EmSvc.CreateMailbox(a); err != nil {
			return nil, err
		}
	}
	if _, err := tb.Carrier.Provision(UserPhone); err != nil {
		return nil, err
	}
	if _, err := sms.AttachGateway(tb.Sim, tb.EmSvc, tb.Carrier, UserPhone); err != nil {
		return nil, err
	}

	if err := tb.buildBuddy(); err != nil {
		return nil, err
	}
	if err := tb.buildUser(); err != nil {
		return nil, err
	}
	if err := tb.buildSources(); err != nil {
		return nil, err
	}
	return tb, nil
}

func (tb *Testbed) buildBuddy() error {
	opts := tb.Opts
	rejuvenation := time.Duration(-1)
	if opts.EnableNightly {
		rejuvenation = mab.DefaultRejuvenationTime
	}
	buddy, err := mab.New(mab.Config{
		Clock:            tb.Sim,
		Machine:          tb.Machine,
		IMService:        tb.IMSvc,
		EmailService:     tb.EmSvc,
		IMHandle:         BuddyIMHandle,
		EmailAddress:     BuddyEmailAddr,
		LogPath:          filepath.Join(opts.TempDir, "buddy.plog"),
		Journal:          tb.Journal,
		PollPeriod:       opts.BuddyPollPeriod,
		LogDelay:         500 * time.Millisecond,
		RouteDelay:       opts.RouteDelay,
		DialogPeriod:     opts.DialogPeriod,
		StartupDelay:     3 * time.Second,
		CallTimeout:      10 * time.Second,
		RejuvenationTime: rejuvenation,
		DisableReplay:    opts.DisableReplay,
		OnIMLaunch: func(app *automation.IMClientApp) {
			tb.appMu.Lock()
			tb.lastIMApp = app
			tb.appMu.Unlock()
			if tb.OnIMLaunch != nil {
				tb.OnIMLaunch(app)
			}
		},
		OnReceive: func(a *alert.Alert, at time.Time) {
			if tb.OnReceive != nil {
				tb.OnReceive(a, at)
			}
			select {
			case tb.receives <- receiveStamp{key: a.DedupKey(), at: at}:
			default:
			}
		},
	})
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
		{Timeout: dmode.Duration(tb.Opts.AckTimeout), Actions: []dmode.Action{{Address: "MSN IM"}}},
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
		ctrl, err := mdc.New(mdc.Config{
			Clock:       tb.Sim,
			Daemon:      buddy,
			Journal:     tb.Journal,
			ProbePeriod: tb.Opts.ProbePeriod,
			Reboot:      func() { tb.Machine.Reboot(mdc.DefaultBootTime) },
		})
		if err != nil {
			return err
		}
		tb.MDC = ctrl
	}
	return nil
}

func (tb *Testbed) buildUser() error {
	user, err := enduser.New(enduser.Config{
		Clock:            tb.Sim,
		Name:             UserName,
		IMService:        tb.IMSvc,
		IMHandle:         UserIMHandle,
		EmailService:     tb.EmSvc,
		EmailAddresses:   []string{UserEmailAddr, UserHomeEmail},
		Carrier:          tb.Carrier,
		PhoneNumber:      UserPhone,
		EmailCheckPeriod: time.Minute,
		SMSReadDelay:     10 * time.Second,
	})
	if err != nil {
		return err
	}
	tb.User = user
	return nil
}

func (tb *Testbed) buildSources() error {
	srcEmail, err := core.NewDirectEmail(tb.EmSvc, SourceEmail)
	if err != nil {
		return err
	}
	srcIM, err := core.NewDirectIM(tb.Sim, tb.IMSvc, SourceIMHandle, nil)
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(tb.Sim, srcIM, srcEmail)
	if err != nil {
		return err
	}
	srcIM.SetOnMessage(func(m im.Message) { engine.HandleIncoming(m) })
	tb.SrcEngine = engine
	tb.SrcIM = srcIM
	target, err := core.BuddyTarget(engine, BuddyIMHandle, BuddyEmailAddr, dmode.Duration(tb.Opts.AckTimeout))
	if err != nil {
		return err
	}
	tb.Target = target

	// Alert proxy over the simulated web.
	tb.Web, err = websim.New(tb.Sim, 200*time.Millisecond)
	if err != nil {
		return err
	}
	tb.Proxy, err = proxy.New(tb.Sim, tb.Web, target)
	if err != nil {
		return err
	}

	// Aladdin home.
	tb.Home, err = aladdin.New(aladdin.Config{
		Clock:           tb.Sim,
		RNG:             dist.NewRNG(tb.Opts.Seed + 4),
		Target:          target,
		ProcessingDelay: 2 * time.Second,
		PhonelineDelay:  3500 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	// WISH location service: two-wing building.
	tb.Wish, err = wish.NewServer(wish.ServerConfig{
		Clock: tb.Sim,
		RNG:   dist.NewRNG(tb.Opts.Seed + 5),
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
		Clock:  tb.Sim,
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
	if err := tb.SrcIM.Start(); err != nil {
		return err
	}
	if tb.MDC != nil {
		tb.MDC.Start()
	} else {
		var startErr error
		if err := tb.Sim.Drive(func() { startErr = tb.Buddy.Start() }, time.Second); err != nil {
			return fmt.Errorf("harness: buddy start: %w", err)
		}
		return startErr
	}
	tb.Sim.RunFor(20*time.Second, time.Second)
	if tb.MDC != nil && !tb.Buddy.Running() {
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
	tb.SrcIM.Stop()
}

// WaitReceive blocks (driving the clock) until the buddy reports
// receiving the alert with the given dedup key, returning the arrival
// stamp.
func (tb *Testbed) WaitReceive(key string, maxVirtual time.Duration) (time.Time, error) {
	var at time.Time
	found := tb.Sim.RunUntil(func() bool {
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
