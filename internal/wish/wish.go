// Package wish simulates the WISH user-location system (built on the
// RADAR [11] approach): clients on wireless devices report the access
// point they hear and the received signal strengths; the server holds
// an RF signal-propagation model and an AP→location map and estimates
// the user's position to within a few meters, attaching a confidence
// percentage. Zone transitions (entering a building, moving to a
// different part, leaving) feed the WISH alert service, which sends
// alerts through SIMBA. User positions are soft state in an SSS store,
// so a silent client eventually expires.
package wish

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/sss"
)

// AP is one 802.11 access point at a known position (meters).
type AP struct {
	ID   string
	X, Y float64
}

// Zone is a named rectangular region of the map.
type Zone struct {
	Name                   string
	MinX, MinY, MaxX, MaxY float64
}

// contains reports whether (x, y) falls inside the zone.
func (z *Zone) contains(x, y float64) bool {
	return x >= z.MinX && x < z.MaxX && y >= z.MinY && y < z.MaxY
}

// OutsideZone is the zone name reported when no zone contains the
// estimate (the user has left the building).
const OutsideZone = "outside"

// Model is the RF signal-propagation model: log-distance path loss
// with Gaussian shadowing.
type Model struct {
	// APs are the access points.
	APs []AP
	// RefPowerDBm is the received power at 1 m (default -40 dBm).
	RefPowerDBm float64
	// PathLossExponent is the decay exponent (default 3.0, indoor).
	PathLossExponent float64
	// NoiseStddevDB is the shadowing noise (default 3 dB).
	NoiseStddevDB float64
}

func (m *Model) withDefaults() Model {
	out := *m
	if out.RefPowerDBm == 0 {
		out.RefPowerDBm = -40
	}
	if out.PathLossExponent == 0 {
		out.PathLossExponent = 3.0
	}
	if out.NoiseStddevDB == 0 {
		out.NoiseStddevDB = 3.0
	}
	return out
}

// expected returns the noise-free RSSI from each AP at (x, y).
func (m *Model) expected(x, y float64) []float64 {
	out := make([]float64, len(m.APs))
	for i, ap := range m.APs {
		d := math.Hypot(x-ap.X, y-ap.Y)
		if d < 1 {
			d = 1
		}
		out[i] = m.RefPowerDBm - 10*m.PathLossExponent*math.Log10(d)
	}
	return out
}

// SignalAt samples noisy signal strengths at (x, y) — what a client's
// wireless card would measure.
func (m *Model) SignalAt(x, y float64, rng *dist.RNG) []float64 {
	out := m.expected(x, y)
	for i := range out {
		out[i] += rng.NormFloat64() * m.NoiseStddevDB
	}
	return out
}

// Estimate is one localization result.
type Estimate struct {
	X, Y float64
	// Zone is the containing zone name (OutsideZone if none).
	Zone string
	// Confidence is the estimate's confidence percentage (0–100).
	Confidence float64
	At         time.Time
}

// TransitionKind classifies zone changes.
type TransitionKind int

// Zone transition kinds.
const (
	TransitionEnter TransitionKind = iota + 1
	TransitionMove
	TransitionLeave
)

// String implements fmt.Stringer.
func (k TransitionKind) String() string {
	switch k {
	case TransitionEnter:
		return "entered"
	case TransitionMove:
		return "moved to"
	case TransitionLeave:
		return "left"
	default:
		return fmt.Sprintf("transition(%d)", int(k))
	}
}

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Clock and RNG are required.
	Clock clock.Clock
	RNG   *dist.RNG
	// Model is the propagation model; at least one AP required.
	Model Model
	// Zones are the named map regions.
	Zones []Zone
	// GridResolution is the fingerprint grid cell size in meters
	// (default 2 m — "within a few meters").
	GridResolution float64
	// Target is where location alerts go (the buddy). Optional: a
	// server without a target only tracks.
	Target *core.Target
	// ProcessDelay models server-side localization cost per update.
	ProcessDelay time.Duration
	// UserRefresh/UserMaxMissed are the soft-state parameters for user
	// position variables (defaults 10 s / 2).
	UserRefresh   time.Duration
	UserMaxMissed int
	// OnReport observes alert deliveries. Optional.
	OnReport func(a *alert.Alert, rep *core.Report, err error)
}

// Server is the WISH location server plus its alert service.
type Server struct {
	cfg   ServerConfig
	model Model
	cells []cell
	store *sss.Store

	mu         sync.Mutex
	lastZone   map[string]string // user → zone
	trackers   map[string][]string
	alertsSent int
}

type cell struct {
	x, y     float64
	expected []float64
}

// NewServer builds the server, precomputing the fingerprint grid over
// the bounding box of APs and zones.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Clock == nil || cfg.RNG == nil {
		return nil, errors.New("wish: ServerConfig requires Clock and RNG")
	}
	if len(cfg.Model.APs) == 0 {
		return nil, errors.New("wish: model needs at least one AP")
	}
	if cfg.GridResolution <= 0 {
		cfg.GridResolution = 2
	}
	if cfg.ProcessDelay <= 0 {
		cfg.ProcessDelay = 500 * time.Millisecond
	}
	if cfg.UserRefresh <= 0 {
		cfg.UserRefresh = 10 * time.Second
	}
	if cfg.UserMaxMissed <= 0 {
		cfg.UserMaxMissed = 2
	}
	model := cfg.Model.withDefaults()
	store, err := sss.NewStore(cfg.Clock, "wish-server")
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		model:    model,
		store:    store,
		lastZone: make(map[string]string),
		trackers: make(map[string][]string),
	}
	s.buildGrid()
	return s, nil
}

// buildGrid precomputes expected signal vectors on a regular grid.
func (s *Server) buildGrid() {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, ap := range s.model.APs {
		minX, minY = math.Min(minX, ap.X), math.Min(minY, ap.Y)
		maxX, maxY = math.Max(maxX, ap.X), math.Max(maxY, ap.Y)
	}
	for _, z := range s.cfg.Zones {
		minX, minY = math.Min(minX, z.MinX), math.Min(minY, z.MinY)
		maxX, maxY = math.Max(maxX, z.MaxX), math.Max(maxY, z.MaxY)
	}
	const margin = 4
	minX, minY = minX-margin, minY-margin
	maxX, maxY = maxX+margin, maxY+margin
	r := s.cfg.GridResolution
	for x := minX; x <= maxX; x += r {
		for y := minY; y <= maxY; y += r {
			s.cells = append(s.cells, cell{x: x, y: y, expected: s.model.expected(x, y)})
		}
	}
}

// Store exposes the server's soft-state store (user variables live
// under "wish/user/").
func (s *Server) Store() *sss.Store { return s.store }

// AlertsSent returns how many location alerts were sent.
func (s *Server) AlertsSent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alertsSent
}

// Locate estimates a position from measured signal strengths using
// nearest-neighbor search in signal space over the fingerprint grid.
// Confidence compares the best match against the best sufficiently
// distant alternative.
func (s *Server) Locate(strengths []float64) (Estimate, error) {
	if len(strengths) != len(s.model.APs) {
		return Estimate{}, fmt.Errorf("wish: got %d strengths for %d APs", len(strengths), len(s.model.APs))
	}
	best, second := math.Inf(1), math.Inf(1)
	var bx, by float64
	for _, c := range s.cells {
		d := signalDistance(strengths, c.expected)
		if d < best {
			// The previous best becomes a candidate second place if it
			// is spatially distinct.
			if math.Hypot(c.x-bx, c.y-by) > 2*s.cfg.GridResolution {
				second = best
			}
			best, bx, by = d, c.x, c.y
		} else if d < second && math.Hypot(c.x-bx, c.y-by) > 2*s.cfg.GridResolution {
			second = d
		}
	}
	confidence := 100.0
	if !math.IsInf(second, 1) && best+second > 0 {
		confidence = 100 * second / (best + second)
	}
	return Estimate{
		X: bx, Y: by,
		Zone:       s.zoneOf(bx, by),
		Confidence: confidence,
		At:         s.cfg.Clock.Now(),
	}, nil
}

func (s *Server) zoneOf(x, y float64) string {
	for i := range s.cfg.Zones {
		if s.cfg.Zones[i].contains(x, y) {
			return s.cfg.Zones[i].Name
		}
	}
	return OutsideZone
}

func signalDistance(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Track subscribes subscriber to zone-change alerts for the tracked
// user — the Web interface of the paper's WISH alert service.
func (s *Server) Track(tracked, subscriber string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.trackers[tracked] {
		if sub == subscriber {
			return
		}
	}
	s.trackers[tracked] = append(s.trackers[tracked], subscriber)
}

// Untrack removes a tracking subscription.
func (s *Server) Untrack(tracked, subscriber string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	subs := s.trackers[tracked]
	for i, sub := range subs {
		if sub == subscriber {
			s.trackers[tracked] = append(subs[:i], subs[i+1:]...)
			return
		}
	}
}

// Update ingests one client measurement: localize (consuming the
// processing delay), refresh the user's soft-state variable, and send
// alerts on zone transitions.
func (s *Server) Update(user string, strengths []float64) (Estimate, error) {
	if user == "" {
		return Estimate{}, errors.New("wish: empty user")
	}
	s.cfg.Clock.Sleep(s.cfg.ProcessDelay)
	est, err := s.Locate(strengths)
	if err != nil {
		return Estimate{}, err
	}
	varName := "wish/user/" + user
	if err := s.store.Define(sss.Spec{
		Name:         varName,
		RefreshEvery: s.cfg.UserRefresh,
		MaxMissed:    s.cfg.UserMaxMissed,
	}); err != nil {
		return Estimate{}, err
	}
	value := fmt.Sprintf("%s|%.1f|%.1f|%.0f%%", est.Zone, est.X, est.Y, est.Confidence)
	if err := s.store.Write(varName, value); err != nil {
		return Estimate{}, err
	}

	s.mu.Lock()
	prev, had := s.lastZone[user]
	s.lastZone[user] = est.Zone
	subs := append([]string(nil), s.trackers[user]...)
	s.mu.Unlock()
	if had && prev != est.Zone && len(subs) > 0 {
		s.sendTransitionAlert(user, prev, est)
	}
	return est, nil
}

// sendTransitionAlert notifies subscribers of a zone change.
func (s *Server) sendTransitionAlert(user, prev string, est Estimate) {
	kind := TransitionMove
	switch {
	case prev == OutsideZone:
		kind = TransitionEnter
	case est.Zone == OutsideZone:
		kind = TransitionLeave
	}
	place := est.Zone
	if kind == TransitionLeave {
		place = prev
	}
	a := &alert.Alert{
		ID:       alert.NextID("wish"),
		Source:   "wish",
		Keywords: []string{"Location"},
		Subject:  fmt.Sprintf("%s %s %s", user, kind, place),
		Body: fmt.Sprintf("%s %s %s (estimate %.1f, %.1f; confidence %.0f%%).",
			user, kind, place, est.X, est.Y, est.Confidence),
		Urgency: alert.UrgencyNormal,
		Created: est.At,
	}
	s.mu.Lock()
	s.alertsSent++
	s.mu.Unlock()
	if s.cfg.Target == nil {
		return
	}
	rep, err := s.cfg.Target.Deliver(a)
	if s.cfg.OnReport != nil {
		s.cfg.OnReport(a, rep, err)
	}
}

// Client is the WISH client software on a user's wireless device: it
// measures signal strengths at its current position and beacons them
// to the server.
type Client struct {
	clk           clock.Clock
	rng           *dist.RNG
	server        *Server
	user          string
	beaconPeriod  time.Duration
	wirelessDelay time.Duration

	mu   sync.Mutex
	x, y float64
	stop chan struct{}
}

// NewClient builds a client for user, beaconing every beaconPeriod.
func NewClient(clk clock.Clock, rng *dist.RNG, server *Server, user string, beaconPeriod time.Duration) (*Client, error) {
	if clk == nil || rng == nil || server == nil {
		return nil, errors.New("wish: client requires clock, rng, and server")
	}
	if user == "" {
		return nil, errors.New("wish: client requires user")
	}
	if beaconPeriod <= 0 {
		beaconPeriod = 2 * time.Second
	}
	return &Client{
		clk:           clk,
		rng:           rng,
		server:        server,
		user:          user,
		beaconPeriod:  beaconPeriod,
		wirelessDelay: 500 * time.Millisecond,
	}, nil
}

// MoveTo sets the device's true position.
func (c *Client) MoveTo(x, y float64) {
	c.mu.Lock()
	c.x, c.y = x, y
	c.mu.Unlock()
}

// Position returns the device's true position.
func (c *Client) Position() (x, y float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.x, c.y
}

// Beacon sends one measurement immediately (after the wireless
// transmission delay).
func (c *Client) Beacon() {
	x, y := c.Position()
	strengths := c.server.model.SignalAt(x, y, c.rng)
	c.clk.AfterFunc(c.wirelessDelay, func() {
		_, _ = c.server.Update(c.user, strengths)
	})
}

// Start begins periodic beaconing.
func (c *Client) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	c.stop = stop
	c.mu.Unlock()
	c.clk.Go(func() {
		ticker := c.clk.NewTicker(c.beaconPeriod)
		defer ticker.Stop()
		for {
			clock.Wait(c.clk, stop, ticker.C())
			select {
			case <-stop:
				return
			case <-ticker.C():
				c.Beacon()
			}
		}
	})
}

// Stop halts beaconing; the user's soft-state variable will expire.
func (c *Client) Stop() {
	c.mu.Lock()
	if c.stop != nil {
		close(c.stop)
		clock.Notify(c.clk, c.stop)
		c.stop = nil
	}
	c.mu.Unlock()
}
