package automation

import (
	"sync"

	"simba/internal/clock"
	"simba/internal/dist"
)

// window is the message window both client apps share: the client
// process, the messages received but not yet fetched, the coalescing
// (and lossy) new-message event, and the receive pump that fills the
// window. M is the message type. The apps keep their own connection
// state under mu.
type window[M any] struct {
	*Proc
	rng *dist.RNG

	mu         sync.Mutex
	pending    []M
	events     chan struct{}
	pumpStop   chan struct{}
	eventLossP float64
}

// launch starts a new process for a client app named name.
func launch[M any](m *Machine, name string) (*window[M], error) {
	proc, err := m.StartProc(name)
	if err != nil {
		return nil, err
	}
	return &window[M]{
		Proc:   proc,
		rng:    dist.NewRNG(proc.PID()), // per-instance stream, deterministic by PID
		events: make(chan struct{}, 1),
	}, nil
}

// SetEventLossProbability makes the client silently drop that fraction
// of new-message events, leaving messages unread in the window — the
// condition the paper's self-stabilization "unprocessed messages" check
// repairs.
func (w *window[M]) SetEventLossProbability(p float64) {
	w.mu.Lock()
	w.eventLossP = p
	w.mu.Unlock()
}

// Events returns the coalescing new-message event channel. Events may
// be lost (see SetEventLossProbability); consumers must also poll
// FetchNew periodically, which is exactly what the paper's
// self-stabilization checks do.
func (w *window[M]) Events() <-chan struct{} { return w.events }

// FetchNew drains the unread messages from the window.
func (w *window[M]) FetchNew() ([]M, error) {
	if err := w.gate(); err != nil {
		return nil, err
	}
	w.mu.Lock()
	out := w.pending
	w.pending = nil
	w.mu.Unlock()
	return out, nil
}

// UnreadCount reports how many messages sit unread in the window.
func (w *window[M]) UnreadCount() (int, error) {
	if err := w.gate(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending), nil
}

// stopPumpLocked stops the running pump, if any. w.mu is held.
func (w *window[M]) stopPumpLocked() {
	if w.pumpStop != nil {
		close(w.pumpStop)
		clock.Notify(w.machine.clk, w.pumpStop)
		w.pumpStop = nil
	}
}

// pumpLocked replaces the running pump with one that, for every value
// src yields, adds what it brings to the window (add) and raises a
// (possibly lost) new-message event. w.mu is held.
func pumpLocked[M, T any](w *window[M], src <-chan T, add func([]M, T) []M) {
	w.stopPumpLocked()
	stop := make(chan struct{})
	w.pumpStop = stop
	clk := w.machine.clk
	clk.Go(func() {
		for {
			clock.Wait(clk, stop, w.dead, src)
			select {
			case <-stop:
				return
			case <-w.dead:
				return
			case v := <-src:
				// A hung client's window thread is stuck too: gate here
				// so messages pile up in the service while it is hung.
				if err := w.gate(); err != nil {
					return
				}
				w.mu.Lock()
				w.pending = add(w.pending, v)
				lost := w.eventLossP > 0 && w.rng.Bool(w.eventLossP)
				w.mu.Unlock()
				if !lost {
					select {
					case w.events <- struct{}{}:
						clock.Notify(clk, w.events)
					default:
					}
				}
			}
		}
	})
}
