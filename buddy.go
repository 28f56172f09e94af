package simba

import (
	"time"

	"simba/internal/enduser"
	"simba/internal/mab"
	"simba/internal/world/wiring"
)

// BuddyOptions configures a MyAlertBuddy on a world.
type BuddyOptions struct {
	// IMHandle and EmailAddress are the buddy's own accounts; they are
	// registered with the world's services if missing. Required.
	IMHandle, EmailAddress string
	// LogPath is the pessimistic log file. Required.
	LogPath string
	// DisableNightlyRejuvenation keeps the 23:30 restart off.
	DisableNightlyRejuvenation bool
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
	cfg, err := wiring.BuddyConfig(w, opts.IMHandle, opts.EmailAddress, opts.LogPath)
	if err != nil {
		return nil, err
	}
	if opts.DisableNightlyRejuvenation {
		cfg.RejuvenationTime = -1
	}
	cfg.ConfigureChannels = opts.ConfigureChannels
	return mab.New(cfg)
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
	return wiring.NewWatchdog(w, b, 0)
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
	cfg := wiring.UserConfig(w)
	cfg.Name, cfg.IMHandle, cfg.PhoneNumber = opts.Name, opts.IMHandle, opts.PhoneNumber
	cfg.EmailAddresses, cfg.EmailCheckPeriod = opts.EmailAddresses, opts.EmailCheckPeriod
	return enduser.New(cfg)
}
