package hub

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"simba/internal/addr"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/mab"
)

// Buddy is one hosted tenant: the per-user MyAlertBuddy pipeline
// rebuilt inside the hub. Configure its stages through Pipeline(), and
// optionally attach a delivery profile (addresses + modes) with
// SetProfile + Subscribe to make the hub execute the tenant's
// personalized delivery modes instead of the flat substrate.
type Buddy struct {
	user string
	// pipe points at the three zero stages held inline beside it, so a
	// tenant is one slot of AddUser's slab.
	pipe   mab.Pipeline
	stages struct {
		c mab.Classifier
		g mab.Aggregator
		f mab.Filter
	}

	// Delivery state is copy-on-write: mutators rebuild a buddyState
	// and swap it in, so plan() on the routing hot path reads the
	// profile and subscriptions without any lock.
	mu    sync.Mutex // serializes SetProfile/Subscribe
	state atomic.Pointer[buddyState]
}

// buddyState is one immutable snapshot of a tenant's delivery
// configuration.
type buddyState struct {
	profile *core.Profile
	subs    map[string]string // routing category → delivery-mode name
	// tiers holds per-category QoS overrides (SubscribeTier);
	// categories without an entry use defaultTier.
	tiers       map[string]core.Tier
	defaultTier core.Tier
}

// clone copies the snapshot for a mutator, sharing the immutable maps
// the mutation does not touch.
func (s *buddyState) clone() *buddyState {
	if s == nil {
		return &buddyState{}
	}
	c := *s
	return &c
}

// Pipeline returns the tenant's classify→aggregate→filter stages.
func (b *Buddy) Pipeline() *mab.Pipeline { return &b.pipe }

// SetProfile attaches the tenant's delivery profile. Alerts routed to
// a category the tenant subscribed (Subscribe) execute that
// subscription's delivery mode — block fallback, ack timeouts — on the
// hub's delivery workers; all other alerts use the flat substrate.
func (b *Buddy) SetProfile(p *core.Profile) {
	b.mu.Lock()
	next := b.state.Load().clone() // maps are immutable once published; safe to share
	next.profile = p
	b.state.Store(next)
	b.mu.Unlock()
}

// Subscribe maps a routing category to one of the profile's delivery
// modes, mirroring Store.Subscribe on the hosted path. The profile
// must be set and must define the mode. The subscription's QoS tier is
// the tenant's default (SetTier); SubscribeTier overrides it
// per-category.
func (b *Buddy) Subscribe(category, mode string) error {
	return b.subscribe(category, mode, nil)
}

// SubscribeTier is Subscribe with an explicit per-category delivery
// QoS tier, mirroring Store.SubscribeTier on the hosted path.
func (b *Buddy) SubscribeTier(category, mode string, tier core.Tier) error {
	if !tier.Valid() {
		return fmt.Errorf("hub: subscribe %s/%s: invalid tier %d", b.user, category, tier)
	}
	return b.subscribe(category, mode, &tier)
}

func (b *Buddy) subscribe(category, mode string, tier *core.Tier) error {
	if category == "" {
		return errors.New("hub: empty category")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.state.Load()
	if cur == nil || cur.profile == nil {
		return fmt.Errorf("hub: subscribe %s/%s: tenant has no profile", b.user, category)
	}
	if _, err := cur.profile.Mode(mode); err != nil {
		return err
	}
	next := cur.clone()
	next.subs = make(map[string]string, len(cur.subs)+1)
	maps.Copy(next.subs, cur.subs)
	next.subs[category] = mode
	if tier != nil {
		next.tiers = make(map[string]core.Tier, len(cur.tiers)+1)
		maps.Copy(next.tiers, cur.tiers)
		next.tiers[category] = *tier
	}
	b.state.Store(next)
	return nil
}

// SetTier sets the tenant's default delivery QoS tier: the tier of
// every category without a SubscribeTier override, including alerts
// that route through the flat substrate. The zero default is
// TierBestEffort — the historical semantics.
func (b *Buddy) SetTier(tier core.Tier) error {
	if !tier.Valid() {
		return fmt.Errorf("hub: tenant %s: invalid tier %d", b.user, tier)
	}
	b.mu.Lock()
	next := b.state.Load().clone()
	next.defaultTier = tier
	b.state.Store(next)
	b.mu.Unlock()
	return nil
}

// DefaultTier returns the tenant's default delivery QoS tier.
func (b *Buddy) DefaultTier() core.Tier {
	if s := b.state.Load(); s != nil {
		return s.defaultTier
	}
	return core.TierBestEffort
}

// Tier returns the delivery QoS tier alerts routed to category carry:
// the category's SubscribeTier override when present, else the
// tenant's default.
func (b *Buddy) Tier(category string) core.Tier {
	s := b.state.Load()
	if s == nil {
		return core.TierBestEffort
	}
	if t, ok := s.tiers[category]; ok {
		return t
	}
	return s.defaultTier
}

// plan resolves which registry and delivery mode one routed alert
// executes — the tenant's subscribed mode for the alert's category
// when the tenant carries a profile, else the hub's synthesized flat
// mode (one pass through the addr.TypeSink substrate channel) — plus the
// QoS tier the delivery runs under. The mode is the profile's own
// stored copy, shared read-only with every other delivery of it
// (Config.AckTimeout reaches the executor through deliveryContext, not
// through the mode). Reads the tenant's copy-on-write state snapshot —
// no locks of the hub's, no allocation.
func (h *Hub) plan(b *Buddy, category string) (*addr.Registry, *dmode.Mode, core.Tier) {
	s := b.state.Load()
	if s == nil {
		return h.flatReg, h.flatMode, core.TierBestEffort
	}
	tier, hasTier := s.tiers[category]
	if !hasTier {
		tier = s.defaultTier
	}
	if s.profile == nil {
		return h.flatReg, h.flatMode, tier
	}
	p := s.profile
	modeName, subscribed := s.subs[category]
	if !subscribed {
		return h.flatReg, h.flatMode, tier
	}
	mode, ok := p.SharedMode(modeName)
	if !ok {
		// The mode was deleted after Subscribe; deliver flat rather
		// than losing the alert.
		return h.flatReg, h.flatMode, tier
	}
	return p.Addresses(), mode, tier
}

// deliveryContext is the executor context for one of user's deliveries:
// hosting identity plus Config.AckTimeout as the default block timeout.
func (h *Hub) deliveryContext(user string, shard int) core.DeliveryContext {
	return core.DeliveryContext{User: user, Shard: shard, BlockTimeout: h.cfg.AckTimeout}
}

// AddUser registers a tenant. The returned Buddy's pipeline accepts no
// sources until configured. Tenants may be added before or after Start.
func (h *Hub) AddUser(user string) (*Buddy, error) {
	if user == "" {
		return nil, errors.New("hub: empty user")
	}
	if strings.Contains(user, keySep) {
		return nil, fmt.Errorf("hub: user %q contains reserved separator", user)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.users[user]; ok {
		return nil, fmt.Errorf("hub: user %q already hosted", user)
	}
	if len(h.buddies) == 0 {
		h.buddies = make([]Buddy, 64) // a slab, freed once none of its tenants is reachable
	}
	b := &h.buddies[0]
	h.buddies = h.buddies[1:]
	b.user = user
	b.pipe = mab.Pipeline{Classifier: &b.stages.c, Aggregator: &b.stages.g, Filter: &b.stages.f}
	h.users[user] = b
	return b, nil
}

// Users returns the number of hosted tenants.
func (h *Hub) Users() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.users)
}

// buddy looks up a tenant.
func (h *Hub) buddy(user string) (*Buddy, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	b, ok := h.users[user]
	return b, ok
}

// shardOf maps a user ID onto its shard.
func (h *Hub) shardOf(user string) *shard {
	f := fnv.New32a()
	f.Write([]byte(user))
	return h.shards[int(f.Sum32())%len(h.shards)]
}

// RemoveUser unregisters a tenant. Alerts already admitted keep their
// buddy reference and finish normally; later submissions fail with
// ErrUnknownUser and unprocessed WAL entries for the user are
// tombstoned at the next replay.
func (h *Hub) RemoveUser(user string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.users[user]; !ok {
		return fmt.Errorf("hub: remove %q: %w", user, ErrUnknownUser)
	}
	delete(h.users, user)
	return nil
}

// UserNames returns the hosted tenant IDs, sorted.
func (h *Hub) UserNames() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	names := make([]string, 0, len(h.users))
	for u := range h.users {
		names = append(names, u)
	}
	sort.Strings(names)
	return names
}
