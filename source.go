package simba

import (
	"errors"
	"time"

	"simba/internal/aladdin"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/im"
	"simba/internal/wish"
)

// SourceLink is the source-side SIMBA library instance: a lightweight
// IM endpoint plus email sender feeding a delivery engine, and a
// Target aimed at a buddy ("IM with acknowledgement, fallback email").
// One link can be shared by any number of alert sources.
type SourceLink struct {
	Engine *Engine
	Target *Target

	endpoint *core.DirectIM
}

// NewSourceLink provisions (if needed) the source's IM handle and
// mailbox on the world and wires a link to the buddy's addresses.
func NewSourceLink(w *World, imHandle, emailAddr string, buddy *Buddy, ackTimeout time.Duration) (*SourceLink, error) {
	if buddy == nil {
		return nil, errors.New("simba: NewSourceLink requires a buddy")
	}
	if _, err := w.IM.Status(imHandle); err != nil {
		if err := w.IM.Register(imHandle); err != nil {
			return nil, err
		}
	}
	if _, ok := w.Email.Mailbox(emailAddr); !ok {
		if _, err := w.Email.CreateMailbox(emailAddr); err != nil {
			return nil, err
		}
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
	if ackTimeout <= 0 {
		ackTimeout = 15 * time.Second
	}
	target, err := core.BuddyTarget(engine, buddy.IMHandle(), buddy.EmailAddress(), dmode.Duration(ackTimeout))
	if err != nil {
		return nil, err
	}
	return &SourceLink{Engine: engine, Target: target, endpoint: ep}, nil
}

// Start brings the link online.
func (l *SourceLink) Start() error { return l.endpoint.Start() }

// Stop takes the link offline.
func (l *SourceLink) Stop() { l.endpoint.Stop() }

// Deliver sends one alert to the buddy. It blocks on virtual time, so
// call it under World.Drive (or from a goroutine while something else
// advances the clock).
func (l *SourceLink) Deliver(a *Alert) (*Report, error) { return l.Target.Deliver(a) }

// HomeOptions tunes the simulated Aladdin home.
type HomeOptions struct {
	// OnReport observes every alert delivery. Optional.
	OnReport func(a *Alert, rep *Report, err error)
}

// NewHome builds a simulated Aladdin home delivering through the link.
func NewHome(w *World, link *SourceLink, opts HomeOptions) (*Home, error) {
	return aladdin.New(aladdin.Config{
		Clock:    w.Clock,
		RNG:      dist.NewRNG(w.seed + 11),
		Target:   link.Target,
		OnReport: opts.OnReport,
	})
}

// WISHOptions describes the tracked space.
type WISHOptions struct {
	APs   []AccessPoint
	Zones []Zone
}

// WISHAP places an access point.
func WISHAP(id string, x, y float64) AccessPoint { return AccessPoint{ID: id, X: x, Y: y} }

// WISHZone names a rectangular region.
func WISHZone(name string, minX, minY, maxX, maxY float64) Zone {
	return Zone{Name: name, MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// NewWISHServer builds a location server delivering through the link.
func NewWISHServer(w *World, link *SourceLink, opts WISHOptions) (*WISHServer, error) {
	return wish.NewServer(wish.ServerConfig{
		Clock:  w.Clock,
		RNG:    dist.NewRNG(w.seed + 12),
		Model:  wish.Model{APs: opts.APs},
		Zones:  opts.Zones,
		Target: link.Target,
	})
}

// NewWISHClient builds a beaconing client for the server.
func NewWISHClient(w *World, server *WISHServer, user string, beaconPeriod time.Duration) (*WISHClient, error) {
	return wish.NewClient(w.Clock, dist.NewRNG(w.seed+13), server, user, beaconPeriod)
}
