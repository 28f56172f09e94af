package commgr

import (
	"errors"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/im"
)

// IMManagerConfig parameterizes an IMManager.
type IMManagerConfig struct {
	// Clock drives timeouts and startup delays; required.
	Clock clock.Clock
	// Machine hosts the client software; required.
	Machine *automation.Machine
	// Service is the IM service the client talks to; required.
	Service *im.Service
	// Handle is the IM account the manager operates; required.
	Handle string
	// CallTimeout bounds individual automation calls (default
	// DefaultCallTimeout).
	CallTimeout time.Duration
	// StartupDelay is the virtual time launching the client takes
	// (default DefaultStartupDelay; negative means none).
	StartupDelay time.Duration
	// Journal records recovery actions. Optional.
	Journal *faults.Journal
	// OnLaunch, if set, runs against every freshly launched client
	// instance (fault injectors use it to re-arm ambient faults).
	OnLaunch func(*automation.IMClientApp)
	// MonkeyPairs extends the monkey thread's dismissal table beyond
	// SystemPairs plus the IM client's own known dialogs.
	MonkeyPairs []CaptionButton
	// MonkeyPeriod overrides the 20s dialog sweep period.
	MonkeyPeriod time.Duration
}

// IMClientPairs are the caption-button pairs specific to the IM client
// software.
func IMClientPairs() []CaptionButton {
	return []CaptionButton{
		{Caption: "Connection Error", Button: "OK"},
		{Caption: "Signed In Elsewhere", Button: "OK"},
		{Caption: "Service Announcement", Button: "Close"},
	}
}

// IMManager drives the IM client software and keeps it healthy. Its
// basic-operation probe is a presence query for its own handle, and a
// login that fails for a service outage at restart is left for the
// next sanity check.
type IMManager struct {
	*manager[*automation.IMClientApp, im.Message]
}

// NewIMManager builds a manager. The client software is not launched
// until Start (or the first Restart).
func NewIMManager(cfg IMManagerConfig) (*IMManager, error) {
	if cfg.Clock == nil || cfg.Machine == nil || cfg.Service == nil {
		return nil, errors.New("commgr: IMManagerConfig requires Clock, Machine, and Service")
	}
	if cfg.Handle == "" {
		return nil, errors.New("commgr: IMManagerConfig requires Handle")
	}
	c := client[*automation.IMClientApp]{
		name: "im", owner: cfg.Handle, pairs: IMClientPairs(),
		launch: func() (*automation.IMClientApp, error) {
			return automation.LaunchIMClient(cfg.Machine, cfg.Service, cfg.Handle)
		},
		onLaunch:  cfg.OnLaunch,
		connect:   (*automation.IMClientApp).Login,
		connected: (*automation.IMClientApp).LoggedIn,
		probe: func(app *automation.IMClientApp) error {
			_, err := app.BuddyStatus(cfg.Handle)
			return err
		},
		transient: im.ErrServiceUnavailable,
		connectOp: "login", reconnectOp: "re-login", lost: "logged out",
	}
	return &IMManager{newManager[*automation.IMClientApp, im.Message](c, cfg.Clock, cfg.Machine,
		cfg.CallTimeout, cfg.StartupDelay, cfg.Journal, cfg.MonkeyPairs, cfg.MonkeyPeriod)}, nil
}

// Handle returns the managed IM handle.
func (m *IMManager) Handle() string { return m.owner }

// Send transmits text to an IM handle through the client software,
// returning the message sequence number.
func (m *IMManager) Send(to, text string) (uint64, error) {
	return call(m.manager, func(app *automation.IMClientApp) (uint64, error) { return app.SendMessage(to, text) })
}

// BuddyStatus queries presence through the client software.
func (m *IMManager) BuddyStatus(handle string) (im.Status, error) {
	return call(m.manager, func(app *automation.IMClientApp) (im.Status, error) { return app.BuddyStatus(handle) })
}
