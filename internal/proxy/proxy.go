// Package proxy implements the SIMBA alert proxy of Section 2.1: for
// Web sites that provide interesting information but no alert service,
// the user specifies a URL, a polling frequency, and the starting and
// ending keywords enclosing the interesting block. The proxy polls,
// extracts the block, and generates an alert whenever it changes —
// this is the component the authors pointed at the Florida-recount and
// PlayStation2-availability pages. The same machinery monitors Web
// store / community content (Section 2.2), e.g. a shared photo album.
package proxy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/websim"
)

// Monitor describes one watched page block.
type Monitor struct {
	// Name identifies the monitor and becomes part of alert IDs.
	Name string
	// URL is the websim "site/path" to poll.
	URL string
	// PollEvery is the polling frequency.
	PollEvery time.Duration
	// StartKeyword and EndKeyword enclose the interesting block. Empty
	// keywords select from the start / to the end of the page.
	StartKeyword, EndKeyword string
	// Source is the alert source name stamped on generated alerts
	// (what MyAlertBuddy's classifier matches).
	Source string
	// Keywords are the native category keywords for generated alerts.
	Keywords []string
	// Urgency of generated alerts (default normal).
	Urgency alert.Urgency
}

// validate checks the monitor definition.
func (m *Monitor) validate() error {
	switch {
	case m.Name == "":
		return errors.New("proxy: monitor requires Name")
	case m.URL == "":
		return errors.New("proxy: monitor requires URL")
	case m.PollEvery <= 0:
		return errors.New("proxy: monitor requires positive PollEvery")
	case m.Source == "":
		return errors.New("proxy: monitor requires Source")
	default:
		return nil
	}
}

// Proxy polls monitors and sends change alerts to a delivery target
// (the user's MyAlertBuddy).
type Proxy struct {
	clk    clock.Clock
	web    *websim.Web
	target *core.Target
	// OnReport observes every delivery attempt. Optional.
	OnReport func(m Monitor, rep *core.Report, err error)

	mu       sync.Mutex
	monitors []*monitorState
	stop     chan struct{}
	alerts   int
}

type monitorState struct {
	Monitor
	mu        sync.Mutex
	baseline  string
	havePrior bool
}

// New builds a proxy delivering through target.
func New(clk clock.Clock, web *websim.Web, target *core.Target) (*Proxy, error) {
	if clk == nil || web == nil || target == nil {
		return nil, errors.New("proxy: clock, web, and target are required")
	}
	return &Proxy{clk: clk, web: web, target: target}, nil
}

// AddMonitor registers a monitor. Monitors added after Start are
// picked up immediately.
func (p *Proxy) AddMonitor(m Monitor) error {
	if err := m.validate(); err != nil {
		return err
	}
	if m.Urgency == 0 {
		m.Urgency = alert.UrgencyNormal
	}
	st := &monitorState{Monitor: m}
	p.mu.Lock()
	running := p.stop
	p.monitors = append(p.monitors, st)
	p.mu.Unlock()
	if running != nil {
		p.clk.Go(func() { p.poll(st, running) })
	}
	return nil
}

// AlertsSent returns how many change alerts the proxy has generated.
func (p *Proxy) AlertsSent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alerts
}

// Start begins polling all monitors.
func (p *Proxy) Start() {
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	p.stop = stop
	monitors := append([]*monitorState(nil), p.monitors...)
	p.mu.Unlock()
	for _, st := range monitors {
		p.clk.Go(func() { p.poll(st, stop) })
	}
}

// Stop halts polling.
func (p *Proxy) Stop() {
	p.mu.Lock()
	if p.stop != nil {
		close(p.stop)
		clock.Notify(p.clk, p.stop)
		p.stop = nil
	}
	p.mu.Unlock()
}

// poll is the per-monitor loop: fetch, extract, compare, alert.
func (p *Proxy) poll(st *monitorState, stop chan struct{}) {
	ticker := p.clk.NewTicker(st.PollEvery)
	defer ticker.Stop()
	for {
		clock.Wait(p.clk, stop, ticker.C())
		select {
		case <-stop:
			return
		case <-ticker.C():
			p.pollOnce(st)
		}
	}
}

// pollOnce performs one poll cycle. Exported indirectly for tests via
// the tick path; fetch errors (site down) are skipped silently — the
// next successful poll re-establishes the baseline comparison.
func (p *Proxy) pollOnce(st *monitorState) {
	content, err := p.web.Get(st.URL)
	if err != nil {
		return
	}
	block, ok := ExtractBlock(content, st.StartKeyword, st.EndKeyword)
	if !ok {
		return
	}
	st.mu.Lock()
	changed := st.havePrior && st.baseline != block
	st.baseline = block
	st.havePrior = true
	st.mu.Unlock()
	if !changed {
		return
	}
	a := &alert.Alert{
		ID:       alert.NextID(st.Name),
		Source:   st.Source,
		Keywords: append([]string(nil), st.Keywords...),
		Subject:  fmt.Sprintf("%s changed", st.Name),
		Body:     block,
		Urgency:  st.Urgency,
		Created:  p.clk.Now(),
	}
	p.mu.Lock()
	p.alerts++
	p.mu.Unlock()
	rep, err := p.target.Deliver(a)
	if p.OnReport != nil {
		p.OnReport(st.Monitor, rep, err)
	}
}

// ExtractBlock returns the content between the first occurrence of
// start and the next occurrence of end after it. Empty start matches
// the beginning of the content; empty end matches the end. ok is
// false when a non-empty keyword is absent.
func ExtractBlock(content, start, end string) (block string, ok bool) {
	from := 0
	if start != "" {
		i := strings.Index(content, start)
		if i < 0 {
			return "", false
		}
		from = i + len(start)
	}
	rest := content[from:]
	if end == "" {
		return rest, true
	}
	j := strings.Index(rest, end)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
