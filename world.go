package simba

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

// WorldOptions tunes a simulated world.
type WorldOptions struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// HeavyTails selects realistic heavy-tailed email/SMS delays with
	// loss; the default uses fixed short delays for determinism.
	HeavyTails bool
	// EmailLoss / SMSLoss apply when HeavyTails is set (defaults
	// 0.02 / 0.05).
	EmailLoss, SMSLoss float64
}

// World bundles the simulated communication substrate: the virtual
// clock, the machine the buddy runs on, the IM/email/SMS services, the
// web, and a journal of fault/recovery actions.
type World struct {
	Clock   *SimClock
	Machine *Machine
	IM      *IMService
	Email   *EmailService
	SMS     *SMSCarrier
	Web     *Web
	Journal *Journal

	seed int64
}

// NewWorld builds a simulated world.
func NewWorld(opts WorldOptions) (*World, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.EmailLoss == 0 {
		opts.EmailLoss = 0.02
	}
	if opts.SMSLoss == 0 {
		opts.SMSLoss = 0.05
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
		emailLoss, smsLoss = opts.EmailLoss, opts.SMSLoss
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
	web, err := websim.New(sim, 0)
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
