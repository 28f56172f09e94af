// Package sss implements the Soft-State Store (SSS) server from the
// Aladdin system [9], which SIMBA's home-networking and user-location
// sources are built on: a store of soft-state variables, each
// associated with a required refresh frequency and a maximum number of
// allowed missing refreshes before the variable times out. Clients
// define variables, read/write them, and subscribe to change events.
// Stores on different home PCs replicate updates to each other through
// a simulated multicast (the phoneline Ethernet of the paper's
// disarm-the-alarm scenario).
package sss

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
)

// Store errors.
var (
	// ErrUnknownVar indicates the variable has not been defined.
	ErrUnknownVar = errors.New("sss: unknown variable")
	// ErrExpired indicates the variable has timed out and holds no
	// live value.
	ErrExpired = errors.New("sss: variable expired")
)

// EventKind classifies variable events.
type EventKind int

// Event kinds.
const (
	EventCreated EventKind = iota + 1
	EventUpdated
	EventExpired
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventCreated:
		return "created"
	case EventUpdated:
		return "updated"
	case EventExpired:
		return "expired"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec defines a soft-state variable.
type Spec struct {
	// Name identifies the variable (e.g. "home/security/armed" or
	// "wish/user/yimin").
	Name string
	// RefreshEvery is the required refresh frequency.
	RefreshEvery time.Duration
	// MaxMissed is how many consecutive refreshes may be missed before
	// the variable times out. The expiry deadline after each write or
	// refresh is RefreshEvery × (MaxMissed + 1).
	MaxMissed int
}

func (s *Spec) validate() error {
	switch {
	case s.Name == "":
		return errors.New("sss: spec requires Name")
	case s.RefreshEvery <= 0:
		return errors.New("sss: spec requires positive RefreshEvery")
	case s.MaxMissed < 0:
		return errors.New("sss: spec requires non-negative MaxMissed")
	default:
		return nil
	}
}

// deadline returns the expiry horizon implied by the spec.
func (s *Spec) deadline() time.Duration {
	return s.RefreshEvery * time.Duration(s.MaxMissed+1)
}

// Event is a variable change notification.
type Event struct {
	Node  string // name of the store that fired the event
	Var   string
	Kind  EventKind
	Value string
	At    time.Time
}

// Store is one SSS server instance (one home PC in the paper). It is
// safe for concurrent use.
type Store struct {
	clk  clock.Clock
	name string

	mu      sync.Mutex
	vars    map[string]*entry
	subs    map[int]subscription
	nextSub int
	// replicate, when set, forwards local (non-remote) writes to peers.
	replicate func(spec Spec, value string)
}

type entry struct {
	spec    Spec
	value   string
	expired bool
	timer   clock.Timer
}

type subscription struct {
	prefix string
	fn     func(Event)
}

// NewStore builds a named store.
func NewStore(clk clock.Clock, name string) (*Store, error) {
	if clk == nil {
		return nil, errors.New("sss: clock is required")
	}
	if name == "" {
		return nil, errors.New("sss: store name is required")
	}
	return &Store{
		clk:  clk,
		name: name,
		vars: make(map[string]*entry),
		subs: make(map[int]subscription),
	}, nil
}

// Define declares a variable. Redefining an existing variable updates
// its refresh parameters.
func (s *Store) Define(spec Spec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.vars[spec.Name]
	if !ok {
		s.vars[spec.Name] = &entry{spec: spec, expired: true}
		return nil
	}
	e.spec = spec
	return nil
}

// Specs returns the defined variable specs, for replication.
func (s *Store) Specs() []Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Spec, 0, len(s.vars))
	for _, e := range s.vars {
		out = append(out, e.spec)
	}
	return out
}

// Write sets the variable's value, counts as a refresh, and fires a
// Created or Updated event. The write replicates to linked peers.
func (s *Store) Write(name, value string) error {
	return s.write(name, value, true)
}

func (s *Store) write(name, value string, local bool) error {
	s.mu.Lock()
	e, ok := s.vars[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("sss: write %q: %w", name, ErrUnknownVar)
	}
	wasExpired := e.expired
	changed := e.value != value
	e.value = value
	e.expired = false
	s.armLocked(e)
	spec := e.spec
	var repl func(Spec, string)
	if local {
		repl = s.replicate
	}
	s.mu.Unlock()

	switch {
	case wasExpired:
		s.fire(Event{Node: s.name, Var: name, Kind: EventCreated, Value: value, At: s.clk.Now()})
	case changed:
		s.fire(Event{Node: s.name, Var: name, Kind: EventUpdated, Value: value, At: s.clk.Now()})
	}
	if repl != nil {
		repl(spec, value)
	}
	return nil
}

// Refresh keeps the variable alive without changing its value. A
// refresh of an expired variable revives it (Created event).
func (s *Store) Refresh(name string) error {
	s.mu.Lock()
	e, ok := s.vars[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("sss: refresh %q: %w", name, ErrUnknownVar)
	}
	value := e.value
	s.mu.Unlock()
	return s.write(name, value, true)
}

// Read returns the variable's live value.
func (s *Store) Read(name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.vars[name]
	if !ok {
		return "", fmt.Errorf("sss: read %q: %w", name, ErrUnknownVar)
	}
	if e.expired {
		return "", fmt.Errorf("sss: read %q: %w", name, ErrExpired)
	}
	return e.value, nil
}

// Expired reports whether the variable has timed out (true also for
// never-written variables).
func (s *Store) Expired(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.vars[name]
	if !ok {
		return false, fmt.Errorf("sss: expired %q: %w", name, ErrUnknownVar)
	}
	return e.expired, nil
}

// Subscribe registers fn for events on variables whose names start
// with prefix ("" matches all). It returns a subscription ID.
func (s *Store) Subscribe(prefix string, fn func(Event)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSub++
	s.subs[s.nextSub] = subscription{prefix: prefix, fn: fn}
	return s.nextSub
}

// Unsubscribe removes a subscription.
func (s *Store) Unsubscribe(id int) {
	s.mu.Lock()
	delete(s.subs, id)
	s.mu.Unlock()
}

// armLocked (re)arms the variable's expiry timer. Caller holds s.mu.
func (s *Store) armLocked(e *entry) {
	if e.timer != nil {
		e.timer.Stop()
	}
	name := e.spec.Name
	e.timer = s.clk.AfterFunc(e.spec.deadline(), func() {
		s.expire(name)
	})
}

// expire marks the variable timed out and fires the Expired event.
func (s *Store) expire(name string) {
	s.mu.Lock()
	e, ok := s.vars[name]
	if !ok || e.expired {
		s.mu.Unlock()
		return
	}
	e.expired = true
	value := e.value
	s.mu.Unlock()
	s.fire(Event{Node: s.name, Var: name, Kind: EventExpired, Value: value, At: s.clk.Now()})
}

// fire dispatches an event to matching subscribers.
func (s *Store) fire(ev Event) {
	s.mu.Lock()
	var fns []func(Event)
	for _, sub := range s.subs {
		if sub.prefix == "" || strings.HasPrefix(ev.Var, sub.prefix) {
			fns = append(fns, sub.fn)
		}
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// applyRemote installs a replicated update (defining the variable on
// first sight) without re-replicating.
func (s *Store) applyRemote(spec Spec, value string) {
	s.mu.Lock()
	if _, ok := s.vars[spec.Name]; !ok {
		s.vars[spec.Name] = &entry{spec: spec, expired: true}
	}
	s.mu.Unlock()
	_ = s.write(spec.Name, value, false)
}

// Multicast links stores so that every local write on one store is
// replicated to all the others after a sampled network delay, with an
// optional loss probability (messages silently dropped, as on a real
// shared medium — the refresh mechanism papers over losses).
type Multicast struct {
	clk   clock.Clock
	rng   *dist.RNG
	delay dist.Dist
	lossP float64

	mu      sync.Mutex
	members []*Store
	sent    int
	lost    int
}

// NewMulticast builds an empty group.
func NewMulticast(clk clock.Clock, rng *dist.RNG, delay dist.Dist, lossP float64) (*Multicast, error) {
	if clk == nil || rng == nil {
		return nil, errors.New("sss: multicast requires clock and rng")
	}
	if delay == nil {
		delay = dist.Fixed(50 * time.Millisecond)
	}
	if lossP < 0 || lossP >= 1 {
		return nil, fmt.Errorf("sss: loss probability %v outside [0, 1)", lossP)
	}
	return &Multicast{clk: clk, rng: rng, delay: delay, lossP: lossP}, nil
}

// Join adds a store to the group and wires its replication hook.
func (m *Multicast) Join(s *Store) {
	m.mu.Lock()
	m.members = append(m.members, s)
	m.mu.Unlock()
	s.mu.Lock()
	s.replicate = func(spec Spec, value string) { m.send(s, spec, value) }
	s.mu.Unlock()
}

// Sent returns how many replication messages were sent (one per peer
// per write).
func (m *Multicast) Sent() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent
}

// Lost returns how many replication messages were dropped.
func (m *Multicast) Lost() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost
}

// send fans a write out to every other member.
func (m *Multicast) send(from *Store, spec Spec, value string) {
	m.mu.Lock()
	peers := make([]*Store, 0, len(m.members))
	for _, p := range m.members {
		if p != from {
			peers = append(peers, p)
		}
	}
	m.sent += len(peers)
	m.mu.Unlock()
	for _, peer := range peers {
		if m.rng.Bool(m.lossP) {
			m.mu.Lock()
			m.lost++
			m.mu.Unlock()
			continue
		}
		peer := peer
		m.clk.AfterFunc(m.delay.Sample(m.rng), func() {
			peer.applyRemote(spec, value)
		})
	}
}
