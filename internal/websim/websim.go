// Package websim simulates the Web sites the alert proxy polls: named
// sites holding mutable pages, with configurable fetch latency and
// injectable unreachability. The harness scripts content changes at
// known virtual instants (the Florida-recount and PlayStation2
// monitors of Section 5), which lets the experiments measure exact
// detection-to-delivery latency.
package websim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
)

// Fetch errors.
var (
	// ErrNoSuchSite indicates the site name is unknown.
	ErrNoSuchSite = errors.New("websim: no such site")
	// ErrNoSuchPage indicates the path is unknown on the site.
	ErrNoSuchPage = errors.New("websim: no such page")
	// ErrUnreachable indicates the site is down or the network path to
	// it is broken.
	ErrUnreachable = errors.New("websim: site unreachable")
)

// DefaultFetchDelay models one HTTP round trip.
const DefaultFetchDelay = 200 * time.Millisecond

// Web is the collection of simulated sites.
type Web struct {
	clk        clock.Clock
	fetchDelay time.Duration

	mu    sync.Mutex
	sites map[string]*Site
}

// New builds an empty web. fetchDelay <= 0 selects the default.
func New(clk clock.Clock, fetchDelay time.Duration) (*Web, error) {
	if clk == nil {
		return nil, errors.New("websim: clock is required")
	}
	if fetchDelay <= 0 {
		fetchDelay = DefaultFetchDelay
	}
	return &Web{clk: clk, fetchDelay: fetchDelay, sites: make(map[string]*Site)}, nil
}

// CreateSite registers a new site.
func (w *Web) CreateSite(name string) (*Site, error) {
	if name == "" || strings.Contains(name, "/") {
		return nil, fmt.Errorf("websim: invalid site name %q", name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sites[name]; ok {
		return nil, fmt.Errorf("websim: site %q already exists", name)
	}
	s := &Site{
		name:  name,
		pages: make(map[string]*page),
		down:  faults.NewFlag("site-down:" + name),
	}
	w.sites[name] = s
	return s, nil
}

// Site returns the named site.
func (w *Web) Site(name string) (*Site, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.sites[name]
	return s, ok
}

// Get fetches url ("site/path"), consuming the fetch delay of virtual
// time.
func (w *Web) Get(url string) (string, error) {
	siteName, path, ok := strings.Cut(url, "/")
	if !ok {
		return "", fmt.Errorf("websim: malformed url %q (want site/path)", url)
	}
	w.mu.Lock()
	site, found := w.sites[siteName]
	w.mu.Unlock()
	if !found {
		return "", fmt.Errorf("websim: get %q: %w", url, ErrNoSuchSite)
	}
	w.clk.Sleep(w.fetchDelay)
	return site.get(path)
}

// Site is one simulated web site.
type Site struct {
	name string
	down *faults.Flag

	mu    sync.Mutex
	pages map[string]*page
}

type page struct {
	content  string
	version  int
	modified time.Time
}

// Down returns the site's unreachability flag.
func (s *Site) Down() *faults.Flag { return s.down }

// SetContent creates or replaces a page.
func (s *Site) SetContent(path, content string, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[path]
	if !ok {
		p = &page{}
		s.pages[path] = p
	}
	if p.content != content {
		p.version++
		p.modified = now
	}
	p.content = content
}

// Version returns a page's change counter.
func (s *Site) Version(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pages[path]; ok {
		return p.version
	}
	return 0
}

func (s *Site) get(path string) (string, error) {
	if s.down.Active() {
		return "", fmt.Errorf("websim: %s: %w", s.name, ErrUnreachable)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[path]
	if !ok {
		return "", fmt.Errorf("websim: %s/%s: %w", s.name, path, ErrNoSuchPage)
	}
	return p.content, nil
}

// ScheduleUpdate arms a content change at a virtual-time offset.
func (s *Site) ScheduleUpdate(clk clock.Clock, after time.Duration, path, content string) {
	clk.AfterFunc(after, func() {
		s.SetContent(path, content, clk.Now())
	})
}
