package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dmode"
	"simba/internal/im"
	"simba/internal/timewheel"
)

// Acks tracks pending IM acknowledgements across concurrent
// deliveries. It is the only mutable delivery state left outside the
// executor's stack, shared so the component that sees inbound IMs (the
// buddy's receive loop, the hub's ack intake) can resolve waits started
// by any delivery in flight.
//
// Invariant: an acknowledged IM is never followed by its fallback. A
// channel's Send returns the sequence number the acknowledgement will
// carry, so an ack can reach HandleIncoming before the sending block
// has registered its wait; such an ack is parked in a small early
// table and claimed by the registration instead of vanishing.
type Acks struct {
	clk clock.Clock

	mu      sync.Mutex
	pending map[ackKey]pendingAck
	// early is a ring of acknowledgements that found no registered wait.
	// register claims a matching entry that arrived since its block began
	// and is younger than earlyAckTTL; entries that age out or are
	// overwritten unclaimed were true strays (late or duplicate acks) and
	// stay counted in strays.
	early     [earlyAckSlots]earlyAck
	earlyNext int
	earlyLive int // unclaimed entries not yet seen expired
	strays    int64
}

const (
	// earlyAckSlots sizes the early-ack ring: the Send→register race is
	// microseconds wide, so a handful of slots outlives it even while
	// late acks churn through the ring.
	earlyAckSlots = 64
	// earlyAckTTL bounds how long an unmatched ack may wait for its
	// registration: the race is the tail of one Send, stretched to tens
	// of milliseconds when a stalled host deschedules the sender there.
	// Sequence numbers are per IM session and restart at a re-login, so
	// an old stray must not linger to match a new send; register's since
	// is the tight guard against that, and this one retires entries so
	// registers stop scanning the ring.
	earlyAckTTL = 100 * time.Millisecond
)

type ackKey struct {
	handle string
	seq    uint64
}

// pendingAck is one registered wait: the waiter's channel and the
// friendly address name the arrival is attributed to.
type pendingAck struct {
	ch   chan ackArrival
	name string
}

type ackArrival struct {
	name string
	at   time.Time
}

type earlyAck struct {
	key  ackKey
	at   time.Time
	live bool
}

// NewAcks builds an empty acknowledgement table.
func NewAcks(clk clock.Clock) *Acks {
	return &Acks{clk: clk, pending: make(map[ackKey]pendingAck)}
}

// HandleIncoming inspects an incoming IM. If it is an acknowledgement
// for a pending IM action, the ack is resolved and HandleIncoming
// reports true (the message is consumed). All other messages report
// false and should be processed by the caller.
//
// The arrival is handed to the waiter while the table lock is held:
// once cancel has removed a wait's keys under the same lock, nothing
// can send on its channel any more, which is what lets a pooled
// Scratch reuse one channel across waits. HandleIncoming keeps no
// reference to msg — a parked ack copies its handle — so an ack text
// built for this call can live on the caller's stack (see AckText).
func (t *Acks) HandleIncoming(msg im.Message) bool {
	seq, ok := ParseAck(msg.Text)
	if !ok {
		return false
	}
	key := ackKey{handle: msg.From, seq: seq}
	now := t.clk.Now()
	t.mu.Lock()
	if p, ok := t.pending[key]; ok {
		delete(t.pending, key)
		p.deliver(now)
	} else {
		// No wait yet (or no longer): park it for register to claim.
		e := &t.early[t.earlyNext]
		t.earlyNext = (t.earlyNext + 1) % earlyAckSlots
		if !e.live {
			t.earlyLive++
		}
		*e = earlyAck{key: ackKey{handle: strings.Clone(msg.From), seq: seq}, at: now, live: true}
		t.strays++
	}
	t.mu.Unlock()
	return true // consume stray acks too
}

// deliver hands the arrival to the waiter without blocking: the channel
// buffers one arrival and a block needs only its first.
func (p pendingAck) deliver(at time.Time) {
	select {
	case p.ch <- ackArrival{name: p.name, at: at}:
	default:
	}
}

// Pending reports how many acknowledgements are outstanding.
func (t *Acks) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// Strays reports how many acknowledgements matched no wait: late acks
// for a block that already timed out, duplicates, and acks for sends
// this table never saw. An ack that merely beat its registration stops
// counting once the registration claims it.
func (t *Acks) Strays() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.strays
}

// register arms one pending acknowledgement, or resolves it on the spot
// when the ack already arrived. since is when the registering block
// began, on the table's clock: an ack that arrived before that cannot
// answer one of its sends, whatever sequence number it carries.
func (t *Acks) register(key ackKey, p pendingAck, since time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.earlyLive > 0 {
		now := t.clk.Now()
		for i := range t.early {
			e := &t.early[i]
			if !e.live {
				continue
			}
			if now.Sub(e.at) > earlyAckTTL {
				e.live = false
				t.earlyLive--
				continue
			}
			if e.key == key && !e.at.Before(since) {
				e.live = false
				t.earlyLive--
				t.strays--
				p.deliver(e.at)
				return
			}
		}
	}
	t.pending[key] = p
}

// cancel closes one block's wait: it unregisters the keys still pending
// for its channel (acks resolved meanwhile belong to it and are left
// alone), then takes out an arrival nobody has read — after the unlock
// nothing can send on ch any more, so the channel is left empty for its
// next wait.
func (t *Acks) cancel(keys []ackKey, ch chan ackArrival) (unread ackArrival, ok bool) {
	t.mu.Lock()
	for _, k := range keys {
		if p, ok := t.pending[k]; ok && p.ch == ch {
			delete(t.pending, k)
		}
	}
	t.mu.Unlock()
	select {
	case unread = <-ch:
		return unread, true
	default:
		return unread, false
	}
}

// DeliveryContext carries the hosting identity of one delivery through
// the executor to the channels: which tenant is being delivered to and
// on which shard. The zero value is the personal (buddy) path.
type DeliveryContext struct {
	User  string
	Shard int
	// BlockTimeout, when positive, replaces dmode.DefaultBlockTimeout
	// for blocks that specify no timeout of their own — the host's
	// default ack wait, carried per delivery so the mode itself can be
	// shared read-only between deliveries.
	BlockTimeout time.Duration
}

// SendGate bounds a host's concurrent channel Sends (the hub's
// per-shard delivery window). A delivery running on a gated Scratch
// holds a slot only while it is calling channels: it acquires before
// the first Send of a block, and releases before it parks in an ack
// wait and when it returns.
type SendGate interface {
	// Acquire blocks for a slot. False means the host is abandoning its
	// deliveries; the executor stops and returns ErrAbandoned.
	Acquire() bool
	Release()
}

// Executor executes delivery modes: mode → block fallback → action
// execution through the channel registry. It is stateless and
// reentrant — any number of Deliver calls may be in flight, on the
// personal buddy path and across a hub's delivery workers alike.
type Executor struct {
	clk      clock.Clock
	channels *Channels
	acks     *Acks
}

// NewExecutor builds an executor over a channel registry. acks may be
// nil when no registered channel is ack-based (pending waits would
// then only ever time out); a shared table must run on the same clock.
func NewExecutor(clk clock.Clock, channels *Channels, acks *Acks) (*Executor, error) {
	if clk == nil {
		return nil, errors.New("core: clock is required")
	}
	if channels == nil {
		return nil, errors.New("core: channel registry is required")
	}
	if acks == nil {
		acks = NewAcks(clk)
	}
	return &Executor{clk: clk, channels: channels, acks: acks}, nil
}

// Channels returns the executor's channel registry.
func (x *Executor) Channels() *Channels { return x.channels }

// Acks returns the executor's acknowledgement table.
func (x *Executor) Acks() *Acks { return x.acks }

// Scratch is one delivery worker's reusable storage: the Report, its
// BlockResult/ActionResult backing arrays, the pending-ack key list,
// the ack-wait channel, the total-failure error, and (optionally) the
// timer wheel ack waits are multiplexed onto. DeliverScratch writes
// each delivery's report into it instead of allocating, so a worker's
// steady-state delivery — ack waits and fallbacks included — is
// allocation-free.
//
// A Scratch must not be shared between concurrent deliveries, and both
// results of DeliverScratch are BORROWED: the report and a total-failure
// error (which formats its summary from that report only when Error is
// called) are valid only until the same Scratch's next delivery.
// Callers that retain either (or hand them to callbacks that do) must
// copy what they need first.
type Scratch struct {
	rep    Report
	failed failedError
	keys   []ackKey
	// ackCh is the one wait channel every block of every delivery on
	// this scratch reuses; Acks.cancel leaves it empty.
	ackCh chan ackArrival
	// wheel, when set, services ack-timeout waits instead of a fresh
	// Clock.NewTimer per block.
	wheel *timewheel.Wheel
	// gate, when set, is held only around channel Sends.
	gate SendGate
	held bool
}

// NewScratch builds a reusable delivery scratch. wheel may be nil, in
// which case ack waits fall back to per-block clock timers.
func NewScratch(wheel *timewheel.Wheel) *Scratch {
	return &Scratch{wheel: wheel, ackCh: make(chan ackArrival, 1)}
}

// SetGate makes deliveries on this scratch take a slot from g around
// their channel Sends. Call it before the first delivery.
func (s *Scratch) SetGate(g SendGate) { s.gate = g }

// enter takes a gate slot unless one is held (or there is no gate).
func (s *Scratch) enter() bool {
	if s == nil || s.gate == nil || s.held {
		return true
	}
	s.held = s.gate.Acquire()
	return s.held
}

// leave gives the gate slot back, if held.
func (s *Scratch) leave() {
	if s != nil && s.held {
		s.gate.Release()
		s.held = false
	}
}

// failedError is the total-failure error: it wraps ErrAllBlocksFailed
// and renders the report's per-action failure summary only on demand,
// so a failed attempt nobody prints costs no formatting.
type failedError struct {
	alertID string
	rep     *Report
}

func (e *failedError) Error() string {
	return fmt.Sprintf("core: alert %s mode %s: %v (%s)",
		e.alertID, e.rep.ModeName, ErrAllBlocksFailed, e.rep.FailureSummary())
}

func (e *failedError) Unwrap() error { return ErrAllBlocksFailed }

// Deliver executes the delivery mode for one alert on the personal
// path (zero DeliveryContext). See DeliverAs.
func (x *Executor) Deliver(a *alert.Alert, reg *addr.Registry, mode *dmode.Mode) (*Report, error) {
	return x.DeliverAs(DeliveryContext{}, a, reg, mode)
}

// DeliverAs executes the delivery mode for one alert against the
// user's address registry, trying blocks in order until one succeeds.
// It blocks for up to the sum of the blocks' timeouts (only blocks
// that must wait for an acknowledgement consume their timeout). On
// total failure the error wraps ErrAllBlocksFailed and carries the
// report's per-action failure summary. The returned report and error
// are freshly allocated and the caller owns them.
func (x *Executor) DeliverAs(ctx DeliveryContext, a *alert.Alert, reg *addr.Registry, mode *dmode.Mode) (*Report, error) {
	return x.deliver(ctx, a, "", nil, reg, mode, nil)
}

// DeliverScratch is DeliverAs for the pooled hot path: the report and a
// total-failure error live in scr (see Scratch for the borrowing
// contract; ErrAbandoned is returned bare when scr's gate refuses a
// slot, with the alert possibly half-delivered), payload is
// the alert's pre-marshaled wire form (nil marshals on the spot), and
// alertKey is the alert's pre-computed dedup key ("" computes it) — the
// hub passes both from envelope-owned storage so a delivery allocates
// nothing. scr may be nil, making this exactly DeliverAs.
func (x *Executor) DeliverScratch(ctx DeliveryContext, a *alert.Alert, alertKey string, payload []byte, reg *addr.Registry, mode *dmode.Mode, scr *Scratch) (*Report, error) {
	return x.deliver(ctx, a, alertKey, payload, reg, mode, scr)
}

func (x *Executor) deliver(ctx DeliveryContext, a *alert.Alert, alertKey string, payload []byte, reg *addr.Registry, mode *dmode.Mode, scr *Scratch) (*Report, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := mode.Validate(); err != nil {
		return nil, err
	}
	if payload == nil {
		var err error
		if payload, err = a.MarshalText(); err != nil {
			return nil, err
		}
	}
	if alertKey == "" {
		alertKey = a.DedupKey()
	}
	// The fresh-Report literal must stay on the scratch-less branch:
	// report escapes, so an unconditional literal would heap-allocate on
	// every call even when the scratch's report replaces it.
	var report *Report
	if scr != nil {
		report = &scr.rep
	} else {
		report = &Report{}
	}
	// Field-by-field reset: a struct literal would drop the Blocks
	// backing array (and each block's Actions backing) the scratch
	// exists to reuse.
	report.AlertKey = alertKey
	report.ModeName = mode.Name
	report.Blocks = report.Blocks[:0]
	report.Delivered = false
	report.DeliveredVia = ""
	report.StartedAt = x.clk.Now()
	report.FinishedAt = time.Time{}
	defer scr.leave()
	for i := range mode.Blocks {
		br := appendBlockResult(&report.Blocks, i)
		if !x.runBlock(ctx, br, &mode.Blocks[i], reg, a, payload, scr) {
			return report, ErrAbandoned
		}
		if br.Succeeded {
			report.Delivered = true
			report.DeliveredVia = deliveredVia(br)
			break
		}
	}
	report.FinishedAt = x.clk.Now()
	if !report.Delivered {
		// As with the report: the literal stays on the scratch-less branch.
		var failed *failedError
		if scr != nil {
			failed = &scr.failed
		} else {
			failed = &failedError{}
		}
		failed.alertID, failed.rep = a.ID, report
		return report, failed
	}
	return report, nil
}

// appendBlockResult extends blocks by one slot, reusing the slot's
// Actions backing array when growing within capacity (scratch reuse),
// and returns the reset slot.
func appendBlockResult(blocks *[]BlockResult, index int) *BlockResult {
	s := *blocks
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		br := &s[len(s)-1]
		br.Index = index
		br.Actions = br.Actions[:0]
		br.Succeeded = false
		br.Elapsed = 0
		*blocks = s
		return br
	}
	s = append(s, BlockResult{Index: index})
	*blocks = s
	return &s[len(s)-1]
}

// appendActionResult extends actions by one reset slot, reusing backing
// storage within capacity.
func appendActionResult(actions *[]ActionResult, name string) *ActionResult {
	s := *actions
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		res := &s[len(s)-1]
		*res = ActionResult{AddressName: name}
		*actions = s
		return res
	}
	s = append(s, ActionResult{AddressName: name})
	*actions = s
	return &s[len(s)-1]
}

// runBlock performs all enabled actions of one block and decides its
// outcome: immediate success if any fire-and-forget action was
// confirmed, else success iff an acknowledgement arrives within the
// block timeout. Results are written into br (already reset by
// appendBlockResult). The ack channel is the scratch's; without a
// scratch it is made lazily — only when an unconfirmed send actually
// registers a pending ack — so neither blocks whose actions confirm at
// send time nor pooled ack waits allocate.
//
// It reports false when the scratch's gate refused a slot for a Send:
// the host is abandoning the delivery and no further block may run.
func (x *Executor) runBlock(ctx DeliveryContext, br *BlockResult, b *dmode.Block, reg *addr.Registry, a *alert.Alert, payload []byte, scr *Scratch) bool {
	start := x.clk.Now()
	var ackCh chan ackArrival
	var keys []ackKey
	if scr != nil {
		ackCh, keys = scr.ackCh, scr.keys[:0]
	}
	immediate := "" // friendly name of a fire-and-forget success
	abandoned := false

actions:
	for _, action := range b.Actions {
		res := appendActionResult(&br.Actions, action.Address)
		address, ok := reg.Lookup(action.Address)
		switch {
		case !ok:
			res.Err = fmt.Errorf("%q: %w", action.Address, ErrUnknownAddress)
		case !address.Enabled:
			res.Type, res.Target = address.Type, address.Target
			res.Err = fmt.Errorf("%q: %w", action.Address, ErrAddressDisabled)
		default:
			res.Type, res.Target = address.Type, address.Target
			ch, ok := x.channels.Lookup(address.Type)
			if !ok {
				res.Err = fmt.Errorf("%s: %w", address.Type, ErrNoChannel)
				break
			}
			if !scr.enter() {
				res.Err = ErrAbandoned
				abandoned = true
				break actions
			}
			sr, err := ch.Send(Send{
				To:      address.Target,
				User:    ctx.User,
				Shard:   ctx.Shard,
				Alert:   a,
				Payload: payload,
			})
			if err != nil {
				res.Err = err
				break
			}
			if sr.Confirmed {
				res.Confirmed = true
				if immediate == "" {
					immediate = address.Name
				}
				break
			}
			res.Seq = sr.Seq
			if ackCh == nil {
				ackCh = make(chan ackArrival, 1) // scratch-less path
			}
			key := ackKey{handle: address.Target, seq: sr.Seq}
			x.acks.register(key, pendingAck{ch: ackCh, name: address.Name}, start)
			keys = append(keys, key)
		}
	}

	var arr ackArrival
	acked := false
	wait := !abandoned && immediate == "" && len(keys) > 0
	if wait {
		timeout := b.EffectiveTimeout()
		if b.Timeout == 0 && ctx.BlockTimeout > 0 {
			timeout = ctx.BlockTimeout
		}
		// The sends are done; what follows is a wait, not work.
		scr.leave()
		arr, acked = x.waitAck(timeout, ackCh, scr)
	}
	if len(keys) > 0 {
		// Close the wait before judging it. An ack that found its key
		// registered has acknowledged the IM even if the timeout won the
		// select, so it still succeeds the block; a second ack is dropped.
		if late, ok := x.acks.cancel(keys, ackCh); ok && !acked {
			arr, acked = late, true
		}
	}
	switch {
	case immediate != "":
		br.Succeeded = true
	case wait:
		br.Succeeded = acked
		for i := range br.Actions {
			res := &br.Actions[i]
			switch {
			case res.Err != nil:
			case acked && res.AddressName == arr.name:
				res.AckedAt = arr.at
			case !acked && !res.Confirmed:
				res.Err = ErrNoAck
			}
		}
	}
	if scr != nil {
		scr.keys = keys[:0]
	}
	br.Elapsed = x.clk.Now().Sub(start)
	return !abandoned
}

// waitAck blocks until one of the block's registered acks arrives or
// timeout expires, and reports which. The timeout runs on the scratch's
// timer wheel when available (one pooled wheel node instead of a fresh
// clock timer per wait), else on a clock timer.
func (x *Executor) waitAck(timeout time.Duration, ackCh chan ackArrival, scr *Scratch) (arr ackArrival, acked bool) {
	var (
		fire  <-chan time.Time
		wt    *timewheel.Timer
		timer clock.Timer
	)
	if scr != nil && scr.wheel != nil {
		wt = scr.wheel.After(timeout)
		fire = wt.C()
	} else {
		timer = x.clk.NewTimer(timeout)
		fire = timer.C()
	}
	select {
	case arr = <-ackCh:
		acked = true
	case <-fire:
	}
	if wt != nil {
		scr.wheel.Release(wt)
	} else {
		timer.Stop()
	}
	return arr, acked
}

// deliveredVia picks the confirming address name from a succeeded
// block: an acked action first, else the first fire-and-forget
// confirmation.
func deliveredVia(br *BlockResult) string {
	for _, res := range br.Actions {
		if !res.AckedAt.IsZero() {
			return res.AddressName
		}
	}
	for _, res := range br.Actions {
		if res.Err == nil && res.Confirmed {
			return res.AddressName
		}
	}
	return ""
}
