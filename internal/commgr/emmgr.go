package commgr

import (
	"errors"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/email"
	"simba/internal/faults"
)

// EmailManagerConfig parameterizes an EmailManager.
type EmailManagerConfig struct {
	// Clock drives timeouts and startup delays; required.
	Clock clock.Clock
	// Machine hosts the client software; required.
	Machine *automation.Machine
	// Service is the email service; required.
	Service *email.Service
	// Address is the mailbox the manager operates; required.
	Address string
	// CallTimeout bounds individual automation calls (default
	// DefaultCallTimeout).
	CallTimeout time.Duration
	// StartupDelay is the virtual launch time (default
	// DefaultStartupDelay; negative means none).
	StartupDelay time.Duration
	// Journal records recovery actions. Optional.
	Journal *faults.Journal
	// OnLaunch runs against every freshly launched client instance.
	OnLaunch func(*automation.EmailClientApp)
	// MonkeyPairs extends the dismissal table.
	MonkeyPairs []CaptionButton
	// MonkeyPeriod overrides the 20s dialog sweep period.
	MonkeyPeriod time.Duration
}

// EmailManager drives the email client software and keeps it healthy.
// Its basic-operation probe is an unread count, and any connect error
// at restart is reported.
type EmailManager struct {
	*manager[*automation.EmailClientApp, email.Message]
}

// NewEmailManager builds a manager; the client launches on Start.
func NewEmailManager(cfg EmailManagerConfig) (*EmailManager, error) {
	if cfg.Clock == nil || cfg.Machine == nil || cfg.Service == nil {
		return nil, errors.New("commgr: EmailManagerConfig requires Clock, Machine, and Service")
	}
	if cfg.Address == "" {
		return nil, errors.New("commgr: EmailManagerConfig requires Address")
	}
	c := client[*automation.EmailClientApp]{
		name: "email", owner: cfg.Address,
		pairs: []CaptionButton{
			{Caption: "Send Error", Button: "OK"},
			{Caption: "Server Unavailable", Button: "Retry"},
			{Caption: "Mailbox Full", Button: "OK"},
		},
		launch: func() (*automation.EmailClientApp, error) {
			return automation.LaunchEmailClient(cfg.Machine, cfg.Service, cfg.Address)
		},
		onLaunch:  cfg.OnLaunch,
		connect:   (*automation.EmailClientApp).Connect,
		connected: (*automation.EmailClientApp).Connected,
		probe: func(app *automation.EmailClientApp) error {
			_, err := app.UnreadCount()
			return err
		},
		connectOp: "connect", reconnectOp: "reconnect", lost: "disconnected",
	}
	return &EmailManager{newManager[*automation.EmailClientApp, email.Message](c, cfg.Clock, cfg.Machine,
		cfg.CallTimeout, cfg.StartupDelay, cfg.Journal, cfg.MonkeyPairs, cfg.MonkeyPeriod)}, nil
}

// Address returns the managed mailbox address.
func (m *EmailManager) Address() string { return m.owner }

// Send submits a message through the client software.
func (m *EmailManager) Send(to, subject, body string) error {
	_, err := call(m.manager, func(app *automation.EmailClientApp) (struct{}, error) {
		return struct{}{}, app.SendMail(to, subject, body)
	})
	return err
}
