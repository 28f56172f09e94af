// Package wiring fills what sits on a simulated world — a MyAlertBuddy
// and its watchdog, an end user, a source link — with the world's
// services, for the façade and the harness alike. Each caller adds its
// own calibration. It is apart from package world so that the packages
// it fills can still import world in their own tests.
package wiring

import (
	"time"

	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/enduser"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/mdc"
	"simba/internal/world"
)

// BuddyConfig returns a MyAlertBuddy configuration on w with the given
// accounts, which it creates if they are missing.
func BuddyConfig(w *world.World, imHandle, emailAddr, logPath string) (mab.Config, error) {
	if err := ensureAccounts(w, imHandle, emailAddr); err != nil {
		return mab.Config{}, err
	}
	return mab.Config{
		Clock:        w.Clock,
		Machine:      w.Machine,
		IMService:    w.IM,
		EmailService: w.Email,
		IMHandle:     imHandle,
		EmailAddress: emailAddr,
		LogPath:      logPath,
		Journal:      w.Journal,
	}, nil
}

// UserConfig returns an end-user configuration on w's services.
func UserConfig(w *world.World) enduser.Config {
	return enduser.Config{Clock: w.Clock, IMService: w.IM, EmailService: w.Email, Carrier: w.SMS}
}

// SourceLink is the source-side SIMBA library instance: an IM endpoint
// and an email sender feeding a delivery engine, and a Target aimed at
// a buddy ("IM with acknowledgement, fallback email").
type SourceLink struct {
	Engine *core.Engine
	IM     *core.DirectIM
	Target *core.Target
}

// NewSourceLink creates the source's IM handle and mailbox on w if
// they are missing, and links them to the buddy's addresses.
func NewSourceLink(w *world.World, imHandle, emailAddr, buddyIM, buddyEmail string, ackTimeout time.Duration) (*SourceLink, error) {
	if err := ensureAccounts(w, imHandle, emailAddr); err != nil {
		return nil, err
	}
	emailSender, err := core.NewDirectEmail(w.Email, emailAddr)
	if err != nil {
		return nil, err
	}
	ep, err := core.NewDirectIM(w.Clock, w.IM, imHandle, nil)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(w.Clock, ep, emailSender)
	if err != nil {
		return nil, err
	}
	ep.SetOnMessage(func(m im.Message) { engine.HandleIncoming(m) })
	target, err := core.BuddyTarget(engine, buddyIM, buddyEmail, dmode.Duration(ackTimeout))
	if err != nil {
		return nil, err
	}
	return &SourceLink{Engine: engine, IM: ep, Target: target}, nil
}

// ensureAccounts registers imHandle and creates the mailbox emailAddr
// on w unless they exist; an empty name is skipped.
func ensureAccounts(w *world.World, imHandle, emailAddr string) error {
	if _, err := w.IM.Status(imHandle); err != nil && imHandle != "" {
		if err := w.IM.Register(imHandle); err != nil {
			return err
		}
	}
	if _, ok := w.Email.Mailbox(emailAddr); !ok && emailAddr != "" {
		if _, err := w.Email.CreateMailbox(emailAddr); err != nil {
			return err
		}
	}
	return nil
}

// NewWatchdog supervises d with a Master Daemon Controller that
// reboots w's machine when it escalates; a zero probe period keeps the
// paper's 3-minute AreYouWorking probes.
func NewWatchdog(w *world.World, d mdc.Daemon, probe time.Duration) (*mdc.Controller, error) {
	return mdc.New(mdc.Config{
		Clock:       w.Clock,
		Daemon:      d,
		Journal:     w.Journal,
		ProbePeriod: probe,
		Reboot:      func() { w.Machine.Reboot(mdc.DefaultBootTime) },
	})
}
