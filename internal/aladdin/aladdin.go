// Package aladdin simulates the Aladdin home networking system [9]
// that feeds SIMBA's home alerts: sensors and devices on heterogeneous
// in-home networks (powerline, phoneline, RF, IR) connected to the
// Internet through a home gateway. The paper's Section 5 scenario is
// modeled hop by hop: a remote-control press travels over RF to a
// powerline transceiver, a powerline monitor process on a PC turns it
// into a Soft-State Store update, the update replicates over the
// phoneline Ethernet multicast to the gateway's store, whose change
// event makes the Aladdin home server send an alert through SIMBA.
//
// Sensors are soft state: each sensor variable carries a refresh
// frequency and a missed-refresh budget, so a sensor whose battery
// dies stops refreshing and eventually raises a "Sensor Broken" alert
// (the paper's garage-door example).
//
// The package also provides the paper's pre-SIMBA baseline: delivering
// every alert as two duplicated emails plus two duplicated SMS
// messages (Section 2.3), used by experiment E6.
package aladdin

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/sss"
)

// Default hop latencies, calibrated so the disarm scenario's
// trigger→user-IM path lands near the paper's 11-second average.
const (
	DefaultRFDelay         = 1 * time.Second
	DefaultPowerlineDelay  = 2 * time.Second
	DefaultProcessingDelay = 1 * time.Second
	DefaultPhonelineDelay  = 3 * time.Second
	DefaultSensorRefresh   = 30 * time.Second
	DefaultSensorMaxMissed = 3
)

// Variable name prefixes in the stores.
const (
	sensorPrefix   = "aladdin/sensor/"
	securityVar    = "aladdin/security/armed"
	aladdinPrefix  = "aladdin/"
	sourceName     = "aladdin"
	keywordOn      = "Sensor ON"
	keywordOff     = "Sensor OFF"
	keywordBroken  = "Sensor Broken"
	keywordSecData = "Security"
)

// Config parameterizes a Home.
type Config struct {
	// Clock and RNG are required.
	Clock clock.Clock
	RNG   *dist.RNG
	// Target is where the home server sends alerts (the buddy);
	// required.
	Target *core.Target
	// Hop latencies; zero selects the defaults above.
	RFDelay         time.Duration
	PowerlineDelay  time.Duration
	ProcessingDelay time.Duration
	PhonelineDelay  time.Duration
	// Sensor soft-state parameters; zero selects the defaults.
	SensorRefresh   time.Duration
	SensorMaxMissed int
	// MulticastLoss is the phoneline replication loss probability.
	MulticastLoss float64
	// OnReport observes every alert delivery. Optional.
	OnReport func(a *alert.Alert, rep *core.Report, err error)
}

// Home is the simulated Aladdin deployment: a monitor PC, a gateway
// PC, their replicated stores, the sensors, and the home server.
type Home struct {
	cfg     Config
	monitor *sss.Store // the PC running the powerline monitor process
	gateway *sss.Store // the home gateway machine
	mc      *sss.Multicast

	mu         sync.Mutex
	sensors    map[string]*Sensor
	alertsSent int
	hbStop     chan struct{}
}

// Sensor is one home sensor.
type Sensor struct {
	Name     string
	Critical bool

	mu      sync.Mutex
	state   string
	battery bool // true = has power
}

// State returns the sensor's last physical state.
func (s *Sensor) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// BatteryOK reports whether the sensor can still refresh.
func (s *Sensor) BatteryOK() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.battery
}

// New builds a home.
func New(cfg Config) (*Home, error) {
	if cfg.Clock == nil || cfg.RNG == nil || cfg.Target == nil {
		return nil, errors.New("aladdin: Config requires Clock, RNG, and Target")
	}
	if cfg.RFDelay <= 0 {
		cfg.RFDelay = DefaultRFDelay
	}
	if cfg.PowerlineDelay <= 0 {
		cfg.PowerlineDelay = DefaultPowerlineDelay
	}
	if cfg.ProcessingDelay <= 0 {
		cfg.ProcessingDelay = DefaultProcessingDelay
	}
	if cfg.PhonelineDelay <= 0 {
		cfg.PhonelineDelay = DefaultPhonelineDelay
	}
	if cfg.SensorRefresh <= 0 {
		cfg.SensorRefresh = DefaultSensorRefresh
	}
	if cfg.SensorMaxMissed <= 0 {
		cfg.SensorMaxMissed = DefaultSensorMaxMissed
	}
	monitor, err := sss.NewStore(cfg.Clock, "monitor-pc")
	if err != nil {
		return nil, err
	}
	gateway, err := sss.NewStore(cfg.Clock, "gateway")
	if err != nil {
		return nil, err
	}
	mc, err := sss.NewMulticast(cfg.Clock, cfg.RNG, dist.Fixed(cfg.PhonelineDelay), cfg.MulticastLoss)
	if err != nil {
		return nil, err
	}
	mc.Join(monitor)
	mc.Join(gateway)
	h := &Home{
		cfg:     cfg,
		monitor: monitor,
		gateway: gateway,
		mc:      mc,
		sensors: make(map[string]*Sensor),
	}
	if err := monitor.Define(sss.Spec{
		Name:         securityVar,
		RefreshEvery: time.Minute,
		MaxMissed:    10,
	}); err != nil {
		return nil, err
	}
	// The home server: gateway store events become SIMBA alerts.
	gateway.Subscribe(aladdinPrefix, h.onGatewayEvent)
	return h, nil
}

// Multicast exposes replication counters.
func (h *Home) Multicast() *sss.Multicast { return h.mc }

// AlertsSent returns how many alerts the home server has sent.
func (h *Home) AlertsSent() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.alertsSent
}

// AddSensor installs a sensor on the home's networks.
func (h *Home) AddSensor(name string, critical bool) (*Sensor, error) {
	if name == "" {
		return nil, errors.New("aladdin: sensor requires a name")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.sensors[name]; ok {
		return nil, fmt.Errorf("aladdin: sensor %q already installed", name)
	}
	if err := h.monitor.Define(sss.Spec{
		Name:         sensorPrefix + name,
		RefreshEvery: h.cfg.SensorRefresh,
		MaxMissed:    h.cfg.SensorMaxMissed,
	}); err != nil {
		return nil, err
	}
	s := &Sensor{Name: name, Critical: critical, state: "OFF", battery: true}
	h.sensors[name] = s
	// Initial state write so the variable is live.
	if err := h.monitor.Write(sensorPrefix+name, "OFF"); err != nil {
		return nil, err
	}
	return s, nil
}

// Sensor returns the named sensor.
func (h *Home) Sensor(name string) (*Sensor, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sensors[name]
	return s, ok
}

// TriggerSensor simulates the physical sensor changing state: the
// signal crosses the sensor's network (RF), is converted by the
// powerline transceiver, and reaches the monitor PC, which updates the
// local store; replication then carries it to the gateway.
func (h *Home) TriggerSensor(name, state string) error {
	h.mu.Lock()
	s, ok := h.sensors[name]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("aladdin: unknown sensor %q", name)
	}
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
	transit := h.cfg.RFDelay + h.cfg.PowerlineDelay + h.cfg.ProcessingDelay
	h.cfg.Clock.AfterFunc(transit, func() {
		_ = h.monitor.Write(sensorPrefix+name, state)
	})
	return nil
}

// PressRemote simulates the Section 5 scenario: the kid's remote
// control arms or disarms the security system.
func (h *Home) PressRemote(arm bool) {
	value := "armed"
	if !arm {
		value = "disarmed"
	}
	transit := h.cfg.RFDelay + h.cfg.PowerlineDelay + h.cfg.ProcessingDelay
	h.cfg.Clock.AfterFunc(transit, func() {
		_ = h.monitor.Write(securityVar, value)
	})
}

// SetBattery turns a sensor's battery on or off. A dead battery stops
// the heartbeats, so the soft-state variable eventually expires and
// the gateway raises a "Sensor Broken" alert.
func (h *Home) SetBattery(name string, ok bool) error {
	h.mu.Lock()
	s, found := h.sensors[name]
	h.mu.Unlock()
	if !found {
		return fmt.Errorf("aladdin: unknown sensor %q", name)
	}
	s.mu.Lock()
	s.battery = ok
	s.mu.Unlock()
	return nil
}

// StartHeartbeats begins refreshing every powered sensor's variable on
// its refresh period.
func (h *Home) StartHeartbeats() {
	h.mu.Lock()
	if h.hbStop != nil {
		h.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	h.hbStop = stop
	h.mu.Unlock()
	go h.heartbeatLoop(stop)
}

// StopHeartbeats halts sensor refreshes.
func (h *Home) StopHeartbeats() {
	h.mu.Lock()
	if h.hbStop != nil {
		close(h.hbStop)
		h.hbStop = nil
	}
	h.mu.Unlock()
}

func (h *Home) heartbeatLoop(stop chan struct{}) {
	ticker := h.cfg.Clock.NewTicker(h.cfg.SensorRefresh)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C():
			h.mu.Lock()
			sensors := make([]*Sensor, 0, len(h.sensors))
			for _, s := range h.sensors {
				sensors = append(sensors, s)
			}
			h.mu.Unlock()
			for _, s := range sensors {
				if s.BatteryOK() {
					_ = h.monitor.Refresh(sensorPrefix + s.Name)
				}
			}
		}
	}
}

// onGatewayEvent is the Aladdin home server: gateway store changes
// become SIMBA alerts.
func (h *Home) onGatewayEvent(ev sss.Event) {
	var a *alert.Alert
	switch {
	case ev.Var == securityVar:
		if ev.Kind == sss.EventExpired {
			return
		}
		a = &alert.Alert{
			ID:       alert.NextID("aladdin-sec"),
			Source:   sourceName,
			Keywords: []string{keywordSecData},
			Subject:  "Security system " + ev.Value,
			Body:     fmt.Sprintf("The home security system is now %s.", ev.Value),
			Urgency:  alert.UrgencyHigh,
			Created:  ev.At,
		}
	case strings.HasPrefix(ev.Var, sensorPrefix):
		name := strings.TrimPrefix(ev.Var, sensorPrefix)
		h.mu.Lock()
		s, ok := h.sensors[name]
		h.mu.Unlock()
		critical := ok && s.Critical
		switch ev.Kind {
		case sss.EventExpired:
			a = &alert.Alert{
				ID:       alert.NextID("aladdin-broken"),
				Source:   sourceName,
				Keywords: []string{keywordBroken},
				Subject:  fmt.Sprintf("%s Sensor Broken", title(name)),
				Body:     fmt.Sprintf("Sensor %q missed its refreshes (battery?).", name),
				Urgency:  alert.UrgencyHigh,
				Created:  ev.At,
			}
		case sss.EventUpdated, sss.EventCreated:
			if !critical {
				return // only critical sensors alert on state change
			}
			kw := keywordOff
			urgency := alert.UrgencyNormal
			if strings.EqualFold(ev.Value, "ON") {
				kw = keywordOn
				urgency = alert.UrgencyCritical
			}
			a = &alert.Alert{
				ID:       alert.NextID("aladdin-sensor"),
				Source:   sourceName,
				Keywords: []string{kw},
				Subject:  fmt.Sprintf("%s Sensor %s", title(name), strings.ToUpper(ev.Value)),
				Body:     fmt.Sprintf("Sensor %q changed to %s.", name, ev.Value),
				Urgency:  urgency,
				Created:  ev.At,
			}
		}
	}
	if a == nil {
		return
	}
	h.mu.Lock()
	h.alertsSent++
	h.mu.Unlock()
	rep, err := h.cfg.Target.Deliver(a)
	if h.cfg.OnReport != nil {
		h.cfg.OnReport(a, rep, err)
	}
}

// title capitalizes each '-'-separated word of a sensor name.
func title(name string) string {
	words := strings.Split(name, "-")
	for i, w := range words {
		if w == "" {
			continue
		}
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}

// NaiveRedundantMode is the pre-SIMBA Aladdin delivery policy
// (Section 2.3): every alert is sent as two duplicated emails and two
// duplicated cell-phone SMS messages — a single communication block
// with four fire-and-forget actions and no fallback structure. The
// address names are the friendly names in the user's registry.
func NaiveRedundantMode(email1, email2, sms1, sms2 string) *dmode.Mode {
	return &dmode.Mode{
		Name: "NaiveRedundant",
		Blocks: []dmode.Block{{
			Actions: []dmode.Action{
				{Address: email1}, {Address: email2},
				{Address: sms1}, {Address: sms2},
			},
		}},
	}
}
