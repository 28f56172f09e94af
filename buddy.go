package simba

import (
	"time"

	"simba/internal/alert"
	"simba/internal/core"
	"simba/internal/enduser"
	"simba/internal/mab"
	"simba/internal/mdc"
)

// BuddyOptions configures a MyAlertBuddy on a world.
type BuddyOptions struct {
	// IMHandle and EmailAddress are the buddy's own accounts; they are
	// registered with the world's services if missing. Required.
	IMHandle, EmailAddress string
	// LogPath is the pessimistic log file. Required.
	LogPath string
	// AckTimeout bounds how long the buddy waits for a user IM
	// acknowledgement (through modes that use it). Informational here;
	// actual timeouts live in the delivery modes' block timeouts, which
	// the shared mode executor enforces (the hub's analogue is the
	// simbad -ack-timeout flag, substituted into hosted modes).
	AckTimeout time.Duration
	// DisableNightlyRejuvenation keeps the 23:30 restart off.
	DisableNightlyRejuvenation bool
	// OnDelivery observes every routing attempt. Optional.
	OnDelivery func(a *Alert, sub Subscription, rep *Report, err error)
	// ConfigureChannels runs against each incarnation's delivery
	// channel registry after the built-in IM and email channels are
	// registered — the hook for adding a direct-carrier SMS channel
	// (DirectSMSChannel) or substituting a built-in. Optional.
	ConfigureChannels func(*ChannelRegistry)
}

// NewBuddy constructs (but does not start) a MyAlertBuddy on the
// world, creating its IM account and mailbox if needed. Start it
// directly with Start, or supervise it with NewWatchdog.
func NewBuddy(w *World, opts BuddyOptions) (*Buddy, error) {
	if _, exists := w.Email.Mailbox(opts.EmailAddress); !exists && opts.EmailAddress != "" {
		if _, err := w.Email.CreateMailbox(opts.EmailAddress); err != nil {
			return nil, err
		}
	}
	if opts.IMHandle != "" {
		if _, err := w.IM.Status(opts.IMHandle); err != nil {
			if err := w.IM.Register(opts.IMHandle); err != nil {
				return nil, err
			}
		}
	}
	rejuvenation := time.Duration(0)
	if opts.DisableNightlyRejuvenation {
		rejuvenation = -1
	}
	var onDelivery func(a *alert.Alert, sub core.Subscription, rep *core.Report, err error)
	if opts.OnDelivery != nil {
		onDelivery = func(a *alert.Alert, sub core.Subscription, rep *core.Report, err error) {
			opts.OnDelivery(a, sub, rep, err)
		}
	}
	return mab.New(mab.Config{
		Clock:             w.Clock,
		Machine:           w.Machine,
		IMService:         w.IM,
		EmailService:      w.Email,
		IMHandle:          opts.IMHandle,
		EmailAddress:      opts.EmailAddress,
		LogPath:           opts.LogPath,
		Journal:           w.Journal,
		RejuvenationTime:  rejuvenation,
		OnDelivery:        onDelivery,
		ConfigureChannels: opts.ConfigureChannels,
	})
}

// StartBuddy starts the buddy while driving the world's clock through
// the client-software startup delays.
func StartBuddy(w *World, b *Buddy) error {
	var startErr error
	if err := w.Clock.Drive(func() { startErr = b.Start() }, 500*time.Millisecond); err != nil {
		return err
	}
	return startErr
}

// NewWatchdog supervises the buddy with a Master Daemon Controller
// using the paper's parameters (3-minute AreYouWorking probes).
func NewWatchdog(w *World, b *Buddy) (*Watchdog, error) {
	return mdc.New(mdc.Config{
		Clock:   w.Clock,
		Daemon:  b,
		Journal: w.Journal,
		Reboot:  func() { w.Machine.Reboot(mdc.DefaultBootTime) },
	})
}

// UserOptions configures a simulated end user.
type UserOptions struct {
	Name           string
	IMHandle       string
	EmailAddresses []string
	PhoneNumber    string
	// EmailCheckPeriod is how often the user reads mail (default 5m).
	EmailCheckPeriod time.Duration
}

// NewUser builds a simulated human endpoint on the world. The
// referenced accounts must already exist (see
// World.CreatePersonalAccounts).
func NewUser(w *World, opts UserOptions) (*EndUser, error) {
	return enduser.New(enduser.Config{
		Clock:            w.Clock,
		Name:             opts.Name,
		IMService:        w.IM,
		IMHandle:         opts.IMHandle,
		EmailService:     w.Email,
		EmailAddresses:   opts.EmailAddresses,
		Carrier:          w.SMS,
		PhoneNumber:      opts.PhoneNumber,
		EmailCheckPeriod: opts.EmailCheckPeriod,
	})
}
