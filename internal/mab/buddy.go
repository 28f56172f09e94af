// Package mab implements MyAlertBuddy: the always-on personal alert
// router at the center of the SIMBA architecture. All alerts for a
// user are first sent to the buddy's own IM and email addresses; the
// buddy classifies them against the user's accepted-source rules,
// aggregates native keywords into personal categories, filters by
// category state and time constraints, and routes through the
// delivery mode of every subscription of the category.
//
// The buddy is engineered to stay up: incoming IM alerts are
// pessimistically logged before being acknowledged and replayed on
// restart; the communication client software it drives is kept healthy
// by the Communication Managers' exception-handling automation; a
// self-stabilization layer checks invariants on the paper's periods;
// and a Service incarnation exposes the mdc.Daemon interface so the
// Master Daemon Controller can restart it on termination or hang.
// Rejuvenation happens nightly at 23:30, on demand via a special
// IM/email keyword, and whenever a stabilization check cannot rectify
// a violation.
package mab

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/alert"
	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/commgr"
	"simba/internal/core"
	"simba/internal/email"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/mdc"
	"simba/internal/metrics"
	"simba/internal/plog"
	"simba/internal/stabilize"
)

// RejuvenateKeyword triggers remote rejuvenation when it appears in an
// IM text or email subject sent to the buddy.
const RejuvenateKeyword = "SIMBA-REJUVENATE"

// Defaults.
const (
	// DefaultLogDelay models the pessimistic-log fsync cost charged
	// before the acknowledgement is sent (the paper's 1.5s ack budget
	// is one IM hop + this + the return hop).
	DefaultLogDelay = 200 * time.Millisecond
	// DefaultPollPeriod is the fallback sweep for messages whose
	// new-message events were lost.
	DefaultPollPeriod = 30 * time.Second
	// DefaultHeartbeatMaxAge bounds loop staleness before
	// AreYouWorking reports failure.
	DefaultHeartbeatMaxAge = 5 * time.Minute
	// DefaultMemoryLimitMB is the client working-set size beyond which
	// the resource invariant restarts the client software.
	DefaultMemoryLimitMB = 400
	// DefaultRejuvenationTime is 23:30, per Section 4.2.1.
	DefaultRejuvenationTime = 23*time.Hour + 30*time.Minute
	// routeQueueSize bounds alerts awaiting routing.
	routeQueueSize = 1024
)

// Config parameterizes the buddy.
type Config struct {
	// Clock, Machine, IMService, EmailService are required.
	Clock        clock.Clock
	Machine      *automation.Machine
	IMService    *im.Service
	EmailService *email.Service
	// IMHandle and EmailAddress are the buddy's own addresses — the
	// only addresses ever revealed to alert services. Both required;
	// the IM account and mailbox must already exist.
	IMHandle     string
	EmailAddress string
	// LogPath is the pessimistic log file; required.
	LogPath string
	// Journal records fault/recovery actions. Optional.
	Journal *faults.Journal
	// LogDelay, PollPeriod, HeartbeatMaxAge, MemoryLimitMB,
	// SanityPeriod, DialogPeriod override the defaults; zero keeps
	// them.
	LogDelay        time.Duration
	PollPeriod      time.Duration
	HeartbeatMaxAge time.Duration
	MemoryLimitMB   float64
	SanityPeriod    time.Duration
	DialogPeriod    time.Duration
	// RejuvenationTime is the nightly restart offset from midnight;
	// zero keeps 23:30, negative disables nightly rejuvenation.
	RejuvenationTime time.Duration
	// RouteDelay models per-alert processing cost in the routing stage
	// (classification, parsing, bookkeeping). Default zero.
	RouteDelay time.Duration
	// CallTimeout and StartupDelay configure the Communication
	// Managers (see commgr).
	CallTimeout  time.Duration
	StartupDelay time.Duration
	// OnIMLaunch / OnEmailLaunch run against freshly launched client
	// software (fault injection).
	OnIMLaunch    func(*automation.IMClientApp)
	OnEmailLaunch func(*automation.EmailClientApp)
	// OnDelivery observes every routing attempt (metrics). Optional.
	OnDelivery func(a *alert.Alert, sub core.Subscription, rep *core.Report, err error)
	// ConfigureChannels runs against each fresh incarnation's channel
	// registry after the built-in IM/email channels are registered —
	// e.g. to add a direct-carrier SMS channel (core.NewSMSChannel) or
	// replace a built-in. Optional.
	ConfigureChannels func(*core.Channels)
	// OnReceive observes every alert accepted by the buddy, stamped
	// with the (virtual) arrival time. Optional.
	OnReceive func(a *alert.Alert, at time.Time)
	// DisableReplay skips the pessimistic-log replay on restart. It
	// exists only for the ablation experiment that quantifies what the
	// log buys; never set it in production wiring.
	DisableReplay bool
}

// Service is MyAlertBuddy across incarnations. It owns the user's
// configuration (store, classifier, aggregator, filter), which
// survives restarts; each Start creates a fresh incarnation. Service
// implements mdc.Daemon.
type Service struct {
	cfg      Config
	store    *core.Store
	pipeline *Pipeline
	counters *metrics.CounterSet

	mu  sync.Mutex
	inc *incarnation
}

var _ mdc.Daemon = (*Service)(nil)

// New validates the config and builds the service.
func New(cfg Config) (*Service, error) {
	if cfg.Clock == nil || cfg.Machine == nil || cfg.IMService == nil || cfg.EmailService == nil {
		return nil, errors.New("mab: Config requires Clock, Machine, IMService, and EmailService")
	}
	if cfg.IMHandle == "" || cfg.EmailAddress == "" {
		return nil, errors.New("mab: Config requires IMHandle and EmailAddress")
	}
	if cfg.LogPath == "" {
		return nil, errors.New("mab: Config requires LogPath")
	}
	if cfg.LogDelay == 0 {
		cfg.LogDelay = DefaultLogDelay
	}
	if cfg.PollPeriod <= 0 {
		cfg.PollPeriod = DefaultPollPeriod
	}
	if cfg.HeartbeatMaxAge <= 0 {
		cfg.HeartbeatMaxAge = DefaultHeartbeatMaxAge
	}
	if cfg.MemoryLimitMB <= 0 {
		cfg.MemoryLimitMB = DefaultMemoryLimitMB
	}
	if cfg.SanityPeriod <= 0 {
		cfg.SanityPeriod = stabilize.DefaultSanityPeriod
	}
	if cfg.DialogPeriod <= 0 {
		cfg.DialogPeriod = stabilize.DefaultDialogPeriod
	}
	if cfg.RejuvenationTime == 0 {
		cfg.RejuvenationTime = DefaultRejuvenationTime
	}
	return &Service{
		cfg:      cfg,
		store:    core.NewStore(),
		pipeline: NewPipeline(),
		counters: &metrics.CounterSet{},
	}, nil
}

// Store returns the buddy's subscription store (users, addresses,
// modes, subscriptions). It persists across incarnations.
func (s *Service) Store() *core.Store { return s.store }

// Classifier returns the accepted-source rules.
func (s *Service) Classifier() *Classifier { return s.pipeline.Classifier }

// Aggregator returns the keyword→category mapping.
func (s *Service) Aggregator() *Aggregator { return s.pipeline.Aggregator }

// Filter returns the category filter.
func (s *Service) Filter() *Filter { return s.pipeline.Filter }

// Counters returns cumulative processing counters: received, acked,
// routed, delivered, undeliverable, rejected, filtered, replayed,
// duplicates.
func (s *Service) Counters() *metrics.CounterSet { return s.counters }

// IMHandle returns the buddy's IM address (give this to alert
// services, never the user's own).
func (s *Service) IMHandle() string { return s.cfg.IMHandle }

// EmailAddress returns the buddy's email address.
func (s *Service) EmailAddress() string { return s.cfg.EmailAddress }

// Start implements mdc.Daemon: it launches a fresh incarnation. The
// service mutex is NOT held while the incarnation boots (booting
// sleeps on virtual time for the client-software startup delays, and
// holding the lock across that would block every other accessor).
func (s *Service) Start() error {
	s.mu.Lock()
	if s.inc != nil && !s.inc.done() {
		s.mu.Unlock()
		return errors.New("mab: already running")
	}
	s.mu.Unlock()
	inc, err := s.newIncarnation()
	if err != nil {
		return fmt.Errorf("mab: starting incarnation: %w", err)
	}
	s.mu.Lock()
	if s.inc != nil && !s.inc.done() {
		s.mu.Unlock()
		inc.terminate("concurrent start lost the race")
		return errors.New("mab: already running")
	}
	s.inc = inc
	s.mu.Unlock()
	return nil
}

// Exited implements mdc.Daemon.
func (s *Service) Exited() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inc == nil {
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	return s.inc.exited
}

// Kill implements mdc.Daemon.
func (s *Service) Kill() {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	if inc != nil {
		inc.terminate("killed")
	}
}

// AreYouWorking implements mdc.Daemon: the incarnation is healthy when
// its process is alive and both loops have beaten recently.
func (s *Service) AreYouWorking() bool {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	if inc == nil || inc.done() {
		return false
	}
	return inc.healthy()
}

// Running reports whether an incarnation is live.
func (s *Service) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc != nil && !s.inc.done()
}

// InjectHang wedges the current incarnation's loops (they stop beating
// and processing), simulating an internal deadlock. The MDC probe will
// eventually fail and restart the buddy.
func (s *Service) InjectHang() {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	if inc != nil {
		inc.hung.Store(true)
	}
}

// InjectCrash terminates the current incarnation abruptly, simulating
// an unhandled exception.
func (s *Service) InjectCrash() {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	if inc != nil {
		inc.terminate("crash (unhandled exception)")
	}
}

// InjectIMClientHang wedges the current incarnation's IM client
// software (fault injection): automation calls against it block until
// the sanity check times out and the Shutdown/Restart API replaces it.
func (s *Service) InjectIMClientHang() bool {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	if inc == nil || inc.done() {
		return false
	}
	app := inc.imMgr.App()
	if app == nil {
		return false
	}
	app.Hang()
	return true
}

// Rejuvenate gracefully terminates the current incarnation so the MDC
// restarts it at a clean state.
func (s *Service) Rejuvenate(reason string) {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	if inc != nil {
		inc.rejuvenate(reason)
	}
}

// incarnation is one run of the buddy between restarts.
type incarnation struct {
	svc   *Service
	clk   clock.Clock
	proc  *automation.Proc
	imMgr *commgr.IMManager
	emMgr *commgr.EmailManager
	eng   *core.Engine
	exec  *core.Executor // the engine's mode executor; shared delivery logic with the hub
	log   *plog.Log
	stab  *stabilize.Stabilizer

	recvBeat  stabilize.Progress
	routeBeat stabilize.Progress
	hung      atomic.Bool

	routeQ chan *alert.Alert

	exited     chan struct{}
	stopOnce   sync.Once
	rejuvTimer clock.Timer
}

func (s *Service) newIncarnation() (*incarnation, error) {
	cfg := s.cfg
	proc, err := cfg.Machine.StartProc("myalertbuddy")
	if err != nil {
		return nil, err
	}
	fail := func(e error) (*incarnation, error) {
		proc.Kill()
		return nil, e
	}
	log, err := plog.Open(cfg.LogPath)
	if err != nil {
		return fail(err)
	}
	imMgr, err := commgr.NewIMManager(commgr.IMManagerConfig{
		Clock:        cfg.Clock,
		Machine:      cfg.Machine,
		Service:      cfg.IMService,
		Handle:       cfg.IMHandle,
		CallTimeout:  cfg.CallTimeout,
		StartupDelay: cfg.StartupDelay,
		Journal:      cfg.Journal,
		OnLaunch:     cfg.OnIMLaunch,
		MonkeyPeriod: cfg.DialogPeriod,
	})
	if err != nil {
		log.Close()
		return fail(err)
	}
	emMgr, err := commgr.NewEmailManager(commgr.EmailManagerConfig{
		Clock:        cfg.Clock,
		Machine:      cfg.Machine,
		Service:      cfg.EmailService,
		Address:      cfg.EmailAddress,
		CallTimeout:  cfg.CallTimeout,
		StartupDelay: cfg.StartupDelay,
		Journal:      cfg.Journal,
		OnLaunch:     cfg.OnEmailLaunch,
		MonkeyPeriod: cfg.DialogPeriod,
	})
	if err != nil {
		log.Close()
		return fail(err)
	}
	eng, err := core.NewEngine(cfg.Clock, imMgr, emMgr)
	if err != nil {
		log.Close()
		return fail(err)
	}
	if cfg.ConfigureChannels != nil {
		cfg.ConfigureChannels(eng.Channels())
	}
	inc := &incarnation{
		svc:    s,
		clk:    cfg.Clock,
		proc:   proc,
		imMgr:  imMgr,
		emMgr:  emMgr,
		eng:    eng,
		exec:   eng.Executor(),
		log:    log,
		routeQ: make(chan *alert.Alert, routeQueueSize),
		exited: make(chan struct{}),
	}
	if err := imMgr.Start(); err != nil {
		inc.terminate("im manager start failed")
		return nil, err
	}
	if err := emMgr.Start(); err != nil {
		inc.terminate("email manager start failed")
		return nil, err
	}
	if err := inc.registerChecks(); err != nil {
		inc.terminate("check registration failed")
		return nil, err
	}
	now := cfg.Clock.Now()
	inc.recvBeat.Beat(now)
	inc.routeBeat.Beat(now)

	// Replay unprocessed alerts from the pessimistic log before
	// accepting new ones.
	if !cfg.DisableReplay {
		inc.replay()
	}

	inc.stab.Start()
	go inc.receiveLoop()
	go inc.routeLoop()
	go inc.watchProc()
	inc.scheduleNightlyRejuvenation()
	return inc, nil
}

func (inc *incarnation) registerChecks() error {
	cfg := inc.svc.cfg
	stab, err := stabilize.New(cfg.Clock, cfg.Journal)
	if err != nil {
		return err
	}
	// Transient service-side failures (e.g. an IM service outage) are
	// not invariant violations the buddy can rectify by restarting
	// itself, so they do not count toward escalation; only failures to
	// repair the client locally do.
	localOnly := func(ensure func() error) func() error {
		return func() error {
			err := ensure()
			if err != nil && !commgr.Unfixable(err) {
				return nil
			}
			return err
		}
	}
	checks := []stabilize.Check{
		{Name: "im-client-sanity", Period: cfg.SanityPeriod, Fn: localOnly(inc.imMgr.EnsureHealthy)},
		{Name: "email-client-sanity", Period: cfg.SanityPeriod, Fn: localOnly(inc.emMgr.EnsureHealthy)},
		{Name: "client-memory", Period: cfg.SanityPeriod, Fn: inc.checkMemory},
		// Escalation for unprocessed messages never fires: the check
		// heals by draining.
		{Name: "unprocessed-messages", Period: cfg.SanityPeriod, Fn: inc.drainUnprocessed, EscalateAfter: -1},
	}
	for _, c := range checks {
		c.Escalate = inc.unrectifiable(c.Name)
		if err := stab.Register(c); err != nil {
			return err
		}
	}
	inc.stab = stab
	return nil
}

// unrectifiable is check's escalation: the invariant could not be
// restored in place, so the buddy rejuvenates.
func (inc *incarnation) unrectifiable(check string) func(error) {
	return func(err error) {
		inc.rejuvenate(fmt.Sprintf("unrectifiable invariant %q: %v", check, err))
	}
}

// checkMemory is the resource-consumption invariant: a leaking client
// is restarted (a form of client-level rejuvenation).
func (inc *incarnation) checkMemory() error {
	limit := inc.svc.cfg.MemoryLimitMB
	if inc.imMgr.MemoryMB() > limit {
		inc.journal(faults.KindRejuvenation, "im client memory over %vMB; restarting client", limit)
		return inc.imMgr.Restart()
	}
	if inc.emMgr.MemoryMB() > limit {
		inc.journal(faults.KindRejuvenation, "email client memory over %vMB; restarting client", limit)
		return inc.emMgr.Restart()
	}
	return nil
}

// drainUnprocessed sweeps messages whose new-message events were lost.
func (inc *incarnation) drainUnprocessed() error {
	if inc.hung.Load() {
		return nil
	}
	var firstErr error
	if n, err := inc.imMgr.UnreadCount(); err != nil {
		firstErr = err
	} else if n > 0 {
		inc.handleIMMessages()
	}
	if n, err := inc.emMgr.UnreadCount(); err != nil {
		if firstErr == nil {
			firstErr = err
		}
	} else if n > 0 {
		inc.handleEmailMessages()
	}
	return firstErr
}

// replay routes the pessimistic log's unprocessed alerts.
func (inc *incarnation) replay() {
	for _, rec := range inc.log.Unprocessed() {
		var a alert.Alert
		if err := a.UnmarshalText(rec.Payload); err != nil {
			inc.journal(faults.KindReplay, "dropping unparsable logged alert %s: %v", rec.Key, err)
			_ = inc.log.MarkProcessed(rec.Key, inc.clk.Now())
			continue
		}
		inc.journal(faults.KindReplay, "replaying unprocessed alert %s", rec.Key)
		inc.svc.counters.Add1("replayed")
		select {
		case inc.routeQ <- &a:
		default:
			// Queue full: leave unprocessed for the next incarnation.
			return
		}
	}
}

// receiveLoop drains IM and email messages, event-driven with a
// polling fallback.
func (inc *incarnation) receiveLoop() {
	poll := inc.clk.NewTicker(inc.svc.cfg.PollPeriod)
	defer poll.Stop()
	for {
		if inc.hung.Load() {
			<-inc.exited
			return
		}
		imEvents := inc.imMgr.Events()
		emEvents := inc.emMgr.Events()
		select {
		case <-inc.exited:
			return
		case <-imEvents:
			inc.handleIMMessages()
		case <-emEvents:
			inc.handleEmailMessages()
		case <-poll.C():
			inc.handleIMMessages()
			inc.handleEmailMessages()
		}
		inc.recvBeat.Beat(inc.clk.Now())
	}
}

// handleIMMessages fetches and processes new IMs: engine acks, then
// rejuvenation keywords, then alert payloads (pessimistically logged,
// acknowledged, and queued for routing).
func (inc *incarnation) handleIMMessages() {
	msgs, err := inc.imMgr.FetchNew()
	if err != nil {
		return // sanity checks will repair the client
	}
	for _, msg := range msgs {
		if inc.eng.HandleIncoming(msg) {
			continue // acknowledgement for one of our deliveries
		}
		if strings.Contains(msg.Text, RejuvenateKeyword) {
			inc.rejuvenate("remote rejuvenation keyword via IM from " + msg.From)
			return
		}
		if !alert.IsWirePayload(msg.Text) {
			inc.svc.counters.Add1("im-ignored")
			continue
		}
		var a alert.Alert
		if err := a.UnmarshalText([]byte(msg.Text)); err != nil {
			inc.svc.counters.Add1("im-malformed")
			continue
		}
		inc.svc.counters.Add1("received")
		if inc.svc.cfg.OnReceive != nil {
			inc.svc.cfg.OnReceive(&a, inc.clk.Now())
		}
		key := a.DedupKey()
		duplicate := inc.log.Has(key)
		if !duplicate {
			// Pessimistic logging: persist BEFORE acknowledging, and
			// charge the write latency.
			if err := inc.log.LogReceived(key, []byte(msg.Text), inc.clk.Now()); err != nil {
				continue // could not make it durable: do not ack; sender retries/falls back
			}
			inc.clk.Sleep(inc.svc.cfg.LogDelay)
		}
		if _, err := inc.imMgr.Send(msg.From, core.AckText(msg.Seq)); err == nil {
			inc.svc.counters.Add1("acked")
		}
		if duplicate {
			inc.svc.counters.Add1("duplicates")
			continue
		}
		select {
		case inc.routeQ <- &a:
		default:
			inc.svc.counters.Add1("route-queue-full")
		}
	}
}

// handleEmailMessages fetches and processes new emails (the fallback
// channel — no acks).
func (inc *incarnation) handleEmailMessages() {
	msgs, err := inc.emMgr.FetchNew()
	if err != nil {
		return
	}
	for _, msg := range msgs {
		if strings.Contains(msg.Subject, RejuvenateKeyword) {
			inc.rejuvenate("remote rejuvenation keyword via email from " + msg.From)
			return
		}
		a := AlertFromEmail(msg)
		a.EmailFrom = msg.From
		inc.svc.counters.Add1("received")
		if inc.svc.cfg.OnReceive != nil {
			inc.svc.cfg.OnReceive(a, inc.clk.Now())
		}
		key := a.DedupKey()
		if inc.log.Has(key) {
			inc.svc.counters.Add1("duplicates")
			continue
		}
		payload, err := a.MarshalText()
		if err != nil {
			inc.svc.counters.Add1("email-malformed")
			continue
		}
		if err := inc.log.LogReceived(key, payload, inc.clk.Now()); err != nil {
			continue
		}
		select {
		case inc.routeQ <- a:
		default:
			inc.svc.counters.Add1("route-queue-full")
		}
	}
}

// routeLoop classifies, aggregates, filters, and routes queued alerts.
func (inc *incarnation) routeLoop() {
	beat := inc.clk.NewTicker(inc.svc.cfg.PollPeriod)
	defer beat.Stop()
	for {
		if inc.hung.Load() {
			<-inc.exited
			return
		}
		select {
		case <-inc.exited:
			return
		case <-beat.C():
			inc.routeBeat.Beat(inc.clk.Now())
		case a := <-inc.routeQ:
			inc.route(a)
			inc.routeBeat.Beat(inc.clk.Now())
		}
	}
}

// route performs the four MyAlertBuddy stages for one alert.
func (inc *incarnation) route(a *alert.Alert) {
	svc := inc.svc
	if svc.cfg.RouteDelay > 0 {
		inc.clk.Sleep(svc.cfg.RouteDelay)
	}
	defer func() {
		_ = inc.log.MarkProcessed(a.DedupKey(), inc.clk.Now())
	}()

	category, verdict := svc.pipeline.Evaluate(a, inc.clk.Now())
	switch verdict {
	case VerdictReject:
		svc.counters.Add1("rejected")
		return
	case VerdictFilter:
		svc.counters.Add1("filtered")
		return
	}
	subs := svc.store.Subscribers(category)
	if len(subs) == 0 {
		svc.counters.Add1("unsubscribed")
		return
	}
	for _, sub := range subs {
		inc.routeOne(a, category, sub)
	}
	svc.counters.Add1("routed")
}

// routeOne executes one subscription's delivery mode for a routed
// alert, delegating mode → block fallback → action execution to the
// shared core.Executor (the same code path the hub's delivery workers
// run).
func (inc *incarnation) routeOne(a *alert.Alert, category string, sub core.Subscription) {
	svc := inc.svc
	profile, err := svc.store.User(sub.User)
	if err != nil {
		svc.counters.Add1("undeliverable")
		return
	}
	mode, err := profile.Mode(sub.Mode)
	if err != nil {
		svc.counters.Add1("undeliverable")
		return
	}
	routed := a.Clone()
	routed.Keywords = []string{category}
	rep, err := inc.exec.DeliverAs(core.DeliveryContext{User: sub.User}, routed, profile.Addresses(), mode)
	if err != nil {
		svc.counters.Add1("undeliverable")
	} else {
		svc.counters.Add1("delivered")
	}
	if svc.cfg.OnDelivery != nil {
		svc.cfg.OnDelivery(routed, sub, rep, err)
	}
}

// watchProc terminates the incarnation when its process dies (machine
// power-off, reboot, or an external kill).
func (inc *incarnation) watchProc() {
	ticker := inc.clk.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-inc.exited:
			return
		case <-ticker.C():
			if !inc.proc.Running() {
				inc.terminate("process died")
				return
			}
		}
	}
}

// scheduleNightlyRejuvenation arms the 23:30 restart.
func (inc *incarnation) scheduleNightlyRejuvenation() {
	offset := inc.svc.cfg.RejuvenationTime
	if offset < 0 {
		return
	}
	now := inc.clk.Now()
	midnight := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, now.Location())
	next := midnight.Add(offset)
	if !next.After(now) {
		next = next.Add(24 * time.Hour)
	}
	inc.rejuvTimer = inc.clk.AfterFunc(next.Sub(now), func() {
		inc.rejuvenate("nightly rejuvenation")
	})
}

// healthy is the AreYouWorking body.
func (inc *incarnation) healthy() bool {
	if !inc.proc.Running() {
		return false
	}
	now := inc.clk.Now()
	maxAge := inc.svc.cfg.HeartbeatMaxAge
	return !inc.recvBeat.StaleBy(now, maxAge) && !inc.routeBeat.StaleBy(now, maxAge)
}

func (inc *incarnation) done() bool {
	select {
	case <-inc.exited:
		return true
	default:
		return false
	}
}

// rejuvenate performs a graceful (journaled) termination; the MDC
// restarts the buddy at a clean state.
func (inc *incarnation) rejuvenate(reason string) {
	inc.journal(faults.KindRejuvenation, "graceful restart: %s", reason)
	inc.terminate(reason)
}

// terminate tears down the incarnation. Idempotent.
func (inc *incarnation) terminate(reason string) {
	inc.stopOnce.Do(func() {
		inc.journal(faults.KindDaemonRestart, "incarnation terminating: %s", reason)
		close(inc.exited)
		if inc.rejuvTimer != nil {
			inc.rejuvTimer.Stop()
		}
		if inc.stab != nil {
			inc.stab.Stop()
		}
		inc.imMgr.Stop()
		inc.emMgr.Stop()
		inc.log.Close()
		inc.proc.Kill()
	})
}

func (inc *incarnation) journal(kind faults.Kind, format string, args ...any) {
	if inc.svc.cfg.Journal != nil {
		inc.svc.cfg.Journal.Recordf(inc.clk.Now(), kind, format, args...)
	}
}
