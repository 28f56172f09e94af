// Package world builds the simulated substrate of the paper's Figure 5
// once: the virtual clock, the machine MyAlertBuddy runs on, the IM,
// email and SMS services, the web, and a journal of fault and recovery
// actions. The façade's simba.World is this type, and the harness's
// Testbed embeds it; package wiring fills the buddies, users and source
// links that sit on it.
package world

import (
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/email"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/sms"
	"simba/internal/websim"
)

// Options tunes a simulated world.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// HeavyTails selects realistic heavy-tailed email/SMS delays with
	// loss (EmailLoss, SMSLoss); the default uses fixed short delays so
	// latency experiments are deterministic.
	HeavyTails bool
}

// The email and SMS loss probabilities under Options.HeavyTails.
const (
	EmailLoss = 0.02
	SMSLoss   = 0.05
)

// World bundles the simulated communication substrate. Close it when
// done.
type World struct {
	Clock   *clock.Sim
	Machine *automation.Machine
	IM      *im.Service
	Email   *email.Service
	SMS     *sms.Carrier
	Web     *websim.Web
	Journal *faults.Journal

	seed int64
}

// New builds a simulated world. Its services draw from the streams at
// offsets 1 (IM), 2 (email) and 3 (SMS) from the seed.
func New(opts Options) (*World, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	sim := clock.NewSim(time.Time{})
	imSvc, err := im.NewService(im.Config{
		Clock: sim,
		RNG:   dist.NewRNG(opts.Seed + 1),
		HopDelay: dist.Normal{
			Mean: 300 * time.Millisecond, Stddev: 80 * time.Millisecond, Floor: 100 * time.Millisecond,
		},
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
		emailLoss, smsLoss = EmailLoss, SMSLoss
	}
	emSvc, err := email.NewService(email.Config{
		Clock:           sim,
		RNG:             dist.NewRNG(opts.Seed + 2),
		Delay:           emailDelay,
		LossProbability: emailLoss,
	})
	if err != nil {
		return nil, err
	}
	carrier, err := sms.NewCarrier(sms.Config{
		Clock:           sim,
		RNG:             dist.NewRNG(opts.Seed + 3),
		Delay:           smsDelay,
		LossProbability: smsLoss,
	})
	if err != nil {
		return nil, err
	}
	web, err := websim.New(sim, 200*time.Millisecond)
	if err != nil {
		return nil, err
	}
	return &World{
		Clock:   sim,
		Machine: automation.NewMachine(sim),
		IM:      imSvc,
		Email:   emSvc,
		SMS:     carrier,
		Web:     web,
		Journal: &faults.Journal{},
		seed:    opts.Seed,
	}, nil
}

// RNG returns the random stream at offset n from w's seed; callers keep
// their own offsets clear of the services' 1–3. It is a function, not a
// method, so that simba.World, an alias of World, exports nothing more.
func RNG(w *World, n int64) *dist.RNG { return dist.NewRNG(w.seed + n) }

// CreatePersonalAccounts provisions an IM handle, any number of
// mailboxes, and optionally a phone (with its email gateway bridge)
// in one call.
func (w *World) CreatePersonalAccounts(imHandle string, mailboxes []string, phone string) error {
	if imHandle != "" {
		if err := w.IM.Register(imHandle); err != nil {
			return err
		}
	}
	for _, mb := range mailboxes {
		if _, err := w.Email.CreateMailbox(mb); err != nil {
			return err
		}
	}
	if phone != "" {
		if _, err := w.SMS.Provision(phone); err != nil {
			return err
		}
		if _, err := sms.AttachGateway(w.Clock, w.Email, w.SMS, phone); err != nil {
			return err
		}
	}
	return nil
}

// Close ends every actor still live on the world's clock (clock.Sim's
// Close): the phones' email gateways CreatePersonalAccounts started,
// and whatever a stopped component left waiting. Closing twice is
// harmless.
func (w *World) Close() { w.Clock.Close() }
