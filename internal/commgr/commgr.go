// Package commgr implements SIMBA's Communication Managers: the layer
// that drives third-party GUI communication client software through
// automation interfaces and — the paper's key robustness contribution —
// extends them with exception-handling automation:
//
//   - a Sanity-Checking API that verifies the client process is
//     running, the automation pointers are valid, the client is logged
//     on, and basic operations work, re-logging-in when a simple
//     re-logon suffices;
//   - a Shutdown/Restart API that kills a wedged client instance,
//     launches a fresh one, and refreshes every pointer;
//   - a Dialog-Box-Handling API backed by a "monkey thread" that scans
//     the desktop for dialog boxes with known captions and clicks the
//     appropriate button, with an API for registering additional
//     caption-button pairs per operating environment.
package commgr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/faults"
)

// Manager errors.
var (
	// ErrClientHung indicates an automation call exceeded the call
	// timeout: the client software is wedged and must be restarted.
	ErrClientHung = errors.New("commgr: client software hung (call timed out)")
	// ErrClientDead indicates the client process is gone.
	ErrClientDead = errors.New("commgr: client process not running")
)

// DefaultCallTimeout bounds individual automation calls.
const DefaultCallTimeout = 15 * time.Second

// DefaultStartupDelay models how long launching a GUI client takes.
const DefaultStartupDelay = 3 * time.Second

// CaptionButton is one entry in the monkey thread's dismissal table.
type CaptionButton struct {
	Caption string
	Button  string
}

// SystemPairs are the system-generic caption-button pairs every
// Communication Manager knows out of the box.
func SystemPairs() []CaptionButton {
	return []CaptionButton{
		{Caption: "Low Disk Space", Button: "OK"},
		{Caption: "System Error", Button: "OK"},
		{Caption: "Updates Are Ready", Button: "Later"},
	}
}

// Monkey is the dialog-box-handling thread: it periodically scans the
// desktop for dialogs with known captions and clicks their buttons.
type Monkey struct {
	clk     clock.Clock
	desktop *automation.Desktop
	period  time.Duration
	journal *faults.Journal

	mu    sync.Mutex
	pairs []CaptionButton
	stop  chan struct{}
}

// NewMonkey builds a monkey thread scanning every period. journal may
// be nil.
func NewMonkey(clk clock.Clock, desktop *automation.Desktop, period time.Duration, journal *faults.Journal, pairs ...CaptionButton) *Monkey {
	if period <= 0 {
		period = 20 * time.Second // the paper's dialog sweep period
	}
	return &Monkey{
		clk:     clk,
		desktop: desktop,
		period:  period,
		journal: journal,
		pairs:   append([]CaptionButton(nil), pairs...),
	}
}

// AddPair registers an additional caption-button pair — the paper's
// API for dialogs "specific to each operating environment".
func (m *Monkey) AddPair(p CaptionButton) {
	m.mu.Lock()
	m.pairs = append(m.pairs, p)
	m.mu.Unlock()
}

// Pairs returns the current dismissal table.
func (m *Monkey) Pairs() []CaptionButton {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]CaptionButton(nil), m.pairs...)
}

// Sweep performs one scan, clicking every dismissible dialog, and
// returns how many were dismissed.
func (m *Monkey) Sweep() int {
	pairs := m.Pairs()
	dismissed := 0
	for _, dlg := range m.desktop.Open() {
		i := slices.IndexFunc(pairs, func(p CaptionButton) bool { return p.Caption == dlg.Caption })
		if i >= 0 && m.desktop.ClickButton(pairs[i].Caption, pairs[i].Button) {
			dismissed++
			if m.journal != nil {
				m.journal.Recordf(m.clk.Now(), faults.KindDialogDismissed,
					"monkey clicked %q on dialog %q", pairs[i].Button, pairs[i].Caption)
			}
		}
	}
	return dismissed
}

// Unhandled returns dialogs currently open that no known pair can
// dismiss — the paper's "previously unknown dialog boxes".
func (m *Monkey) Unhandled() []automation.Dialog {
	pairs := m.Pairs()
	var out []automation.Dialog
	for _, dlg := range m.desktop.Open() {
		if !slices.ContainsFunc(pairs, func(p CaptionButton) bool { return p.Caption == dlg.Caption }) {
			out = append(out, dlg)
		}
	}
	return out
}

// Start launches the periodic sweep. Call Stop to end it.
func (m *Monkey) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	m.stop = stop
	m.mu.Unlock()
	ticker := m.clk.NewTicker(m.period)
	m.clk.Go(func() {
		defer ticker.Stop()
		for {
			clock.Wait(m.clk, stop, ticker.C())
			select {
			case <-stop:
				return
			case <-ticker.C():
				m.Sweep()
			}
		}
	})
}

// Stop ends the periodic sweep.
func (m *Monkey) Stop() {
	m.mu.Lock()
	if m.stop != nil {
		close(m.stop)
		clock.Notify(m.clk, m.stop)
		m.stop = nil
	}
	m.mu.Unlock()
}

// callTimeout runs op in its own goroutine and fails with ErrClientHung
// if it does not return within timeout of virtual time. A hung client's
// automation calls block until the process is killed, so the goroutine
// does not leak past the next Restart. op's result travels through the
// channel with its error — never through a variable the caller shares
// with the goroutine — so a late op cannot write what a timed-out
// caller is reading; on timeout the zero value is returned.
func callTimeout[T any](clk clock.Clock, timeout time.Duration, op func() (T, error)) (T, error) {
	type result struct {
		val T
		err error
	}
	done := make(chan result, 1)
	clk.Go(func() {
		v, err := op()
		done <- result{v, err}
		clock.Notify(clk, done)
	})
	timer := clk.NewTimer(timeout)
	defer timer.Stop()
	clock.Wait(clk, done, timer.C())
	select {
	case r := <-done:
		return r.val, r.err
	case <-timer.C():
		var zero T
		return zero, ErrClientHung
	}
}

// errOnly adapts an op with no result to callTimeout's shape.
func errOnly(op func() error) func() (struct{}, error) {
	return func() (struct{}, error) { return struct{}{}, op() }
}

// Unfixable reports whether err, returned by a Sanity call, cannot be
// repaired in place and requires the Shutdown/Restart API (as opposed
// to a transient service condition worth retrying in place).
func Unfixable(err error) bool {
	return errors.Is(err, ErrClientHung) ||
		errors.Is(err, ErrClientDead) ||
		errors.Is(err, automation.ErrStaleHandle)
}

func wrap(op string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("commgr: %s: %w", op, err)
}
