package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"simba/internal/addr"
	"simba/internal/dmode"
)

// Store errors.
var (
	// ErrUnknownUser indicates the user has not been registered.
	ErrUnknownUser = errors.New("core: unknown user")
	// ErrUnknownMode indicates the delivery mode has not been defined.
	ErrUnknownMode = errors.New("core: unknown delivery mode")
	// ErrNotSubscribed indicates no matching subscription exists.
	ErrNotSubscribed = errors.New("core: not subscribed")
)

// Subscription maps a category to one subscriber and the delivery mode
// that subscriber chose for it.
type Subscription struct {
	Category string
	User     string
	Mode     string
	// Tier is the subscription's delivery QoS contract. The zero value
	// is TierBestEffort — the historical semantics.
	Tier Tier
}

// Profile is one registered user's addresses and delivery modes.
//
// Stored modes are immutable: DefineMode keeps a private deep copy and
// a redefinition swaps in a new one, never editing the old. That is
// what lets SharedMode hand the stored pointer to concurrent
// deliveries — one in flight finishes on the mode it started with.
type Profile struct {
	name  string
	addrs *addr.Registry

	mu    sync.RWMutex
	modes map[string]*dmode.Mode
}

// NewProfile builds a standalone profile, for hosts that carry
// per-tenant profiles outside a Store (the hub's mode-aware delivery
// stage). Store.RegisterUser remains the constructor on the
// subscription-layer path.
func NewProfile(name string) (*Profile, error) {
	if name == "" {
		return nil, errors.New("core: empty user name")
	}
	return &Profile{
		name:  name,
		addrs: addr.NewRegistry(name),
		modes: make(map[string]*dmode.Mode),
	}, nil
}

// Name returns the user name.
func (p *Profile) Name() string { return p.name }

// Addresses returns the user's mutable address registry.
func (p *Profile) Addresses() *addr.Registry { return p.addrs }

// DefineMode registers (or replaces) a named delivery mode. The mode
// is validated and deep-copied; actions may reference addresses that
// do not exist yet — they are skipped at routing time.
func (p *Profile) DefineMode(m *dmode.Mode) error {
	if err := m.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	p.modes[m.Name] = m.Clone()
	p.mu.Unlock()
	return nil
}

// Mode returns a copy of the named delivery mode.
func (p *Profile) Mode(name string) (*dmode.Mode, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, ok := p.modes[name]
	if !ok {
		return nil, fmt.Errorf("core: user %q mode %q: %w", p.name, name, ErrUnknownMode)
	}
	return m.Clone(), nil
}

// SharedMode returns the stored mode itself, for executing without a
// per-delivery copy. The mode is READ-ONLY: callers must not modify it
// or anything it points to (take Mode for a copy to edit).
func (p *Profile) SharedMode(name string) (*dmode.Mode, bool) {
	p.mu.RLock()
	m, ok := p.modes[name]
	p.mu.RUnlock()
	return m, ok
}

// ModeNames returns the names of all defined modes, sorted.
func (p *Profile) ModeNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.modes))
	for name := range p.modes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Store is the subscription layer: users, their profiles, and
// category subscriptions. It is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	users map[string]*Profile
	subs  map[string][]Subscription // category → subscriptions
}

// NewStore returns an empty subscription store.
func NewStore() *Store {
	return &Store{
		users: make(map[string]*Profile),
		subs:  make(map[string][]Subscription),
	}
}

// RegisterUser creates a profile for name.
func (s *Store) RegisterUser(name string) (*Profile, error) {
	if name == "" {
		return nil, errors.New("core: empty user name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[name]; ok {
		return nil, fmt.Errorf("core: user %q already registered", name)
	}
	p := &Profile{
		name:  name,
		addrs: addr.NewRegistry(name),
		modes: make(map[string]*dmode.Mode),
	}
	s.users[name] = p
	return p, nil
}

// User returns the profile for name.
func (s *Store) User(name string) (*Profile, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.users[name]
	if !ok {
		return nil, fmt.Errorf("core: user %q: %w", name, ErrUnknownUser)
	}
	return p, nil
}

// Subscribe maps category to (user, mode). The user and mode must
// exist. Re-subscribing the same (category, user) replaces the mode —
// this is the one-stop "switch all my Investment alerts from SMS to
// IM" operation the paper motivates.
func (s *Store) Subscribe(category, user, mode string) error {
	return s.SubscribeTier(category, user, mode, TierBestEffort)
}

// SubscribeTier is Subscribe with an explicit delivery QoS tier.
// Re-subscribing the same (category, user) replaces both the mode and
// the tier.
func (s *Store) SubscribeTier(category, user, mode string, tier Tier) error {
	if category == "" {
		return errors.New("core: empty category")
	}
	if !tier.Valid() {
		return fmt.Errorf("core: subscribe %s/%s: invalid tier %d", category, user, tier)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.users[user]
	if !ok {
		return fmt.Errorf("core: subscribe %q: %w", user, ErrUnknownUser)
	}
	p.mu.RLock()
	_, modeOK := p.modes[mode]
	p.mu.RUnlock()
	if !modeOK {
		return fmt.Errorf("core: subscribe %s/%s with mode %q: %w", category, user, mode, ErrUnknownMode)
	}
	subs := s.subs[category]
	for i := range subs {
		if subs[i].User == user {
			subs[i].Mode = mode
			subs[i].Tier = tier
			return nil
		}
	}
	s.subs[category] = append(subs, Subscription{Category: category, User: user, Mode: mode, Tier: tier})
	return nil
}

// Unsubscribe removes (category, user).
func (s *Store) Unsubscribe(category, user string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	subs := s.subs[category]
	for i := range subs {
		if subs[i].User == user {
			s.subs[category] = append(subs[:i], subs[i+1:]...)
			if len(s.subs[category]) == 0 {
				delete(s.subs, category)
			}
			return nil
		}
	}
	return fmt.Errorf("core: unsubscribe %s/%s: %w", category, user, ErrNotSubscribed)
}

// Subscribers returns the subscriptions for category, in subscription
// order.
func (s *Store) Subscribers(category string) []Subscription {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Subscription(nil), s.subs[category]...)
}

// Categories returns all categories with at least one subscriber,
// sorted.
func (s *Store) Categories() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.subs))
	for c := range s.subs {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// LoadAddressBookXML registers every address from an XML address-book
// document (the subscription layer's on-disk form). The document's
// user attribute must match the profile.
func (p *Profile) LoadAddressBookXML(data []byte) error {
	book, err := addr.Unmarshal(data)
	if err != nil {
		return err
	}
	if book.User != p.name {
		return fmt.Errorf("core: address book is for %q, profile is %q", book.User, p.name)
	}
	for _, a := range book.Addresses {
		if err := p.addrs.Register(a); err != nil {
			return err
		}
	}
	return nil
}

// LoadModeXML defines a delivery mode from its XML document form.
func (p *Profile) LoadModeXML(data []byte) error {
	m, err := dmode.Unmarshal(data)
	if err != nil {
		return err
	}
	return p.DefineMode(m)
}
