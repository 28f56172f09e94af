// Package hubtest holds fixtures for driving a hub in demos and tests.
// It does not import the hub: a fixture is a core.Channel.
package hubtest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"simba/internal/core"
	"simba/internal/dist"
)

// SimSink is a simulated delivery substrate for hub-load experiments, a
// core.Channel to register under addr.TypeSink so tenants without a
// personalized delivery mode execute the synthesized flat mode through
// it: one action, confirmed on accept, failed with a drop probability.
// Each shard draws from its own forked RNG, so shards never contend on
// one RNG mutex and runs stay reproducible regardless of shard
// interleaving.
type SimSink struct {
	rngs  []*dist.RNG
	dropP float64

	delivered atomic.Int64
	dropped   atomic.Int64

	// The duplicate-audit map is striped by key hash: one global mutex
	// would re-serialize exactly the deliveries the pipelined hub runs
	// in parallel, hiding hub speedups behind sink contention.
	stripes [sinkStripes]sinkStripe
}

// keySep joins tenant and dedup key in an audit key: the hub's own WAL
// key separator, a control character neither contains.
const keySep = "\x1f"

// sinkStripes is the audit-map stripe count; a power of two so the
// stripe pick is a mask, comfortably above any realistic shard ×
// delivery-window concurrency.
const sinkStripes = 64

type sinkStripe struct {
	mu     sync.Mutex
	perKey map[string]int // audit key → delivery count (duplicate audit)
	_      [40]byte       // pad to a cache line so stripes don't false-share
}

// stripeOf picks the stripe owning an audit key (inline FNV-1a: the
// hash/fnv digest would allocate on every delivery).
func (s *SimSink) stripeOf(key string) *sinkStripe {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.stripes[h&(sinkStripes-1)]
}

// NewSimSink builds a substrate for the given shard count; dropP is
// the per-delivery failure probability.
func NewSimSink(rng *dist.RNG, shards int, dropP float64) *SimSink {
	s := &SimSink{dropP: dropP}
	for i := range s.stripes {
		s.stripes[i].perKey = make(map[string]int)
	}
	for i := 0; i < shards; i++ {
		s.rngs = append(s.rngs, rng.Fork(fmt.Sprintf("sim-sink-shard-%d", i)))
	}
	return s
}

// Send implements core.Channel. The shard and tenant come from the
// delivery context, not the address target.
func (s *SimSink) Send(req core.Send) (core.SendResult, error) {
	g := s.rngs[req.Shard%len(s.rngs)]
	if g.Bool(s.dropP) {
		s.dropped.Add(1)
		return core.SendResult{}, fmt.Errorf("hub: simulated delivery failure for %s", req.User)
	}
	// Build the audit key with one string conversion (the map key must
	// be a durable string, but DedupKey + concat would cost three).
	var kb [96]byte
	buf := append(kb[:0], req.User...)
	buf = append(buf, keySep...)
	buf = req.Alert.AppendDedupKey(buf)
	key := string(buf)
	st := s.stripeOf(key)
	st.mu.Lock()
	st.perKey[key]++
	st.mu.Unlock()
	s.delivered.Add(1)
	return core.SendResult{Confirmed: true}, nil
}

// Delivered returns the number of successful deliveries.
func (s *SimSink) Delivered() int64 { return s.delivered.Load() }

// Dropped returns the number of simulated failures.
func (s *SimSink) Dropped() int64 { return s.dropped.Load() }

// DeliveryCount returns how many times the (user, dedup-key) pair was
// delivered — the receiver-side duplicate audit the paper's timestamp
// contract enables.
func (s *SimSink) DeliveryCount(user, dedupKey string) int {
	key := user + keySep + dedupKey
	st := s.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.perKey[key]
}
