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
// deliveries' scratches, shared so the component that sees inbound IMs
// (the buddy's receive loop, the hub's ack intake) can resolve waits
// started by any delivery in flight.
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

// pendingAck is one registered wait: the block's waiter and the
// friendly address name the arrival is attributed to.
type pendingAck struct {
	w    *waiter
	name string
}

type ackArrival struct {
	name string
	at   time.Time
}

// waiter is one block's ack wait, guarded by the Acks lock: the first
// arrival, whether the timeout fired, and whether the delivery is parked
// on it. The arrival or timeout that finds it parked unparks and resumes
// it, so a park is resumed exactly once; one that comes while the block
// is still sending is only recorded, and the block does not park. It is
// its own timeout's Waker.
type waiter struct {
	arr     ackArrival
	acked   bool
	expired bool
	parked  bool
	acks    *Acks
	host    timewheel.Waker // the host's resume; nil signals ch
	ch      chan struct{}   // DeliverScratch's
	clk     clock.Clock     // ch's, notified on a signal
}

// Wake is the block's timeout falling due.
func (w *waiter) Wake() { w.acks.expire(w) }

func (w *waiter) arrive(name string, at time.Time) (resume bool) {
	if !w.acked {
		w.arr, w.acked = ackArrival{name: name, at: at}, true
	}
	resume, w.parked = w.parked, false
	return resume
}

func (w *waiter) resume() {
	if w.host != nil {
		w.host.Wake()
		return
	}
	w.ch <- struct{}{} // one per park, read once: never blocks
	clock.Notify(w.clk, w.ch)
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
// The arrival is recorded on the waiter while the table lock is held:
// once cancel has removed a wait's keys under the same lock, nothing can
// reach its waiter any more, which is what lets a pooled Scratch reuse
// it across waits. A parked delivery is resumed after the unlock.
// HandleIncoming keeps no reference to msg — a parked ack copies its
// handle — so an ack text built for this call can live on the caller's
// stack (see AckText).
func (t *Acks) HandleIncoming(msg im.Message) bool {
	seq, ok := ParseAck(msg.Text)
	if !ok {
		return false
	}
	key := ackKey{handle: msg.From, seq: seq}
	now := t.clk.Now()
	var woken *waiter
	t.mu.Lock()
	if p, ok := t.pending[key]; ok {
		delete(t.pending, key)
		if p.w.arrive(p.name, now) {
			woken = p.w
		}
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
	if woken != nil {
		woken.resume()
	}
	return true // consume stray acks too
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

// register arms one pending acknowledgement, or records it on the spot
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
				p.w.arrive(p.name, e.at) // still sending: never parked
				return
			}
		}
	}
	t.pending[key] = p
}

// park parks the delivery on w unless an ack or the timeout already
// came, and reports whether it did.
func (t *Acks) park(w *waiter) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w.parked = !w.acked && !w.expired
	return w.parked
}

// expire is the timeout's half of arrive.
func (t *Acks) expire(w *waiter) {
	t.mu.Lock()
	w.expired = true
	resume := w.parked
	w.parked = false
	t.mu.Unlock()
	if resume {
		w.resume()
	}
}

// cancel closes one block's wait: it unregisters the keys still pending
// for w (acks resolved meanwhile belong to it and are left alone),
// returns the first arrival, if any, and clears w for its next wait.
func (t *Acks) cancel(keys []ackKey, w *waiter) (arr ackArrival, acked bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		if p, ok := t.pending[k]; ok && p.w == w {
			delete(t.pending, k)
		}
	}
	arr, acked = w.arr, w.acked
	w.arr, w.acked, w.expired, w.parked = ackArrival{}, false, false, false
	return arr, acked
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

// Executor executes delivery modes: mode → block fallback → action
// execution through the channel registry. It is stateless and
// reentrant — any number of deliveries may be in flight, on the
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

// Scratch is one delivery's resumable state and reusable storage: what
// Begin was given, the Report and its backing arrays, the total-failure
// error, and the walk's block, with its start, ack keys, waiter and
// timeout Timer. A delivery parked in an ack wait is this value, not a
// goroutine. Reuse makes a steady-state delivery — ack waits and
// fallbacks included — allocation-free, and a mode of up to two blocks
// of two actions, with up to two ack waits a block (IMThenEmail), runs
// in the Scratch's inline arrays from its first delivery; a bigger mode
// spills to the heap and keeps what it grew. Its slices point into
// itself once used, so a Scratch is never copied.
//
// A Scratch runs one delivery at a time, and its results are BORROWED:
// the report and a total-failure error (which formats its summary from
// that report only when Error is called) are valid only until the same
// Scratch's next Begin. Callers that retain either (or hand them to
// callbacks that do) must copy what they need first.
type Scratch struct {
	rep    Report
	failed failedError

	x         *Executor
	ctx       DeliveryContext
	a         *alert.Alert
	payload   []byte
	reg       *addr.Registry
	mode      *dmode.Mode
	block     int // the block being walked
	start     time.Time
	confirmed bool // by a fire-and-forget Send
	keys      []ackKey
	w         waiter
	waiting   bool            // the block's ack wait is open: keys registered, timer armed
	timer     timewheel.Timer // the block's timeout
	// wheel carries the ack timeouts; a Scratch built without one makes
	// a private wheel at its first wait.
	wheel *timewheel.Wheel

	// The inline backing Rewind points rep.Blocks, their Actions and
	// keys at before the first walk.
	blocks  [2]BlockResult
	actions [2][2]ActionResult
	keyBuf  [2]ackKey
}

// NewScratch builds a reusable delivery scratch. wheel may be nil (see
// Scratch.wheel).
func NewScratch(wheel *timewheel.Wheel) *Scratch { return &Scratch{wheel: wheel} }

// SetWheel is NewScratch's wheel for a Scratch held by value.
func (s *Scratch) SetWheel(wheel *timewheel.Wheel) { s.wheel = wheel }

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
	return x.DeliverScratch(ctx, a, "", nil, reg, mode, nil)
}

// DeliverScratch is DeliverAs on a reusable scratch: it runs Begin and
// Step synchronously, waiting out each parked block. The report
// and a total-failure error live in scr (see Scratch for the borrowing
// contract); payload and alertKey are as for Begin. scr may be nil,
// making this exactly DeliverAs.
func (x *Executor) DeliverScratch(ctx DeliveryContext, a *alert.Alert, alertKey string, payload []byte, reg *addr.Registry, mode *dmode.Mode, scr *Scratch) (*Report, error) {
	if scr == nil {
		scr = NewScratch(nil)
	}
	if scr.w.ch == nil {
		scr.w.ch, scr.w.clk = make(chan struct{}, 1), x.clk
	}
	if err := x.Begin(ctx, a, alertKey, payload, reg, mode, scr, nil); err != nil {
		return nil, err
	}
	for x.Step(scr) {
		clock.Wait(x.clk, scr.w.ch)
		<-scr.w.ch
	}
	return scr.Result()
}

// Begin readies scr to walk mode's blocks for one alert; Step walks
// them. payload is the alert's wire form (nil marshals on the spot) and
// alertKey its dedup key ("" computes it), so a host holding both
// allocates nothing. wake resumes a parked block: woken once per park,
// by the ack's or the timeout's goroutine; nil is DeliverScratch's.
func (x *Executor) Begin(ctx DeliveryContext, a *alert.Alert, alertKey string, payload []byte, reg *addr.Registry, mode *dmode.Mode, scr *Scratch, wake timewheel.Waker) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := mode.Validate(); err != nil {
		return err
	}
	if payload == nil {
		var err error
		if payload, err = a.MarshalText(); err != nil {
			return err
		}
	}
	if alertKey == "" {
		alertKey = a.DedupKey()
	}
	scr.x, scr.ctx, scr.a, scr.payload, scr.reg, scr.mode = x, ctx, a, payload, reg, mode
	scr.w.host, scr.w.acks = wake, x.acks
	scr.rep.AlertKey, scr.rep.ModeName = alertKey, mode.Name
	scr.Rewind()
	return nil
}

// Rewind restarts scr's walk at the first block: another attempt at the
// delivery Begin readied. Field-by-field: a struct literal would drop
// the Blocks backing array (and each block's Actions backing) the
// scratch exists to reuse. The first walk starts in the inline arrays.
func (s *Scratch) Rewind() {
	if s.rep.Blocks == nil {
		s.rep.Blocks, s.keys = s.blocks[:0], s.keyBuf[:0]
		for i := range s.blocks {
			s.blocks[i].Actions = s.actions[i][:0]
		}
	}
	s.rep.Blocks = s.rep.Blocks[:0]
	s.rep.Delivered, s.rep.DeliveredVia = false, ""
	s.rep.StartedAt, s.rep.FinishedAt = s.x.clk.Now(), time.Time{}
	s.block = 0
}

// Step walks scr's delivery on from where it stopped: it runs blocks'
// Sends and judges them until a block parks in its ack wait (true: the
// wake given to Begin resumes it, and the next Step judges that block)
// or the walk ends (false: see Result).
func (x *Executor) Step(s *Scratch) (parked bool) {
	rep := &s.rep
	for ; s.block < len(s.mode.Blocks); s.block++ {
		if s.waiting {
			x.endBlock(s) // resumed: the parked block's wait is over
		} else {
			appendBlockResult(&rep.Blocks, s.block)
			if x.runBlock(s) {
				return true
			}
		}
		if br := &rep.Blocks[len(rep.Blocks)-1]; br.Succeeded {
			rep.Delivered, rep.DeliveredVia = true, deliveredVia(br)
			break
		}
	}
	rep.FinishedAt = x.clk.Now()
	return false
}

// Result is the outcome of scr's finished walk: the report and, on
// total failure, an error wrapping ErrAllBlocksFailed. Both are
// borrowed (see Scratch).
func (s *Scratch) Result() (*Report, error) {
	if s.rep.Delivered {
		return &s.rep, nil
	}
	s.failed.alertID, s.failed.rep = s.a.ID, &s.rep
	return &s.rep, &s.failed
}

// Abandon gives up scr's parked block, if any, unjudged: its ack keys
// are unregistered and its timeout released, so nothing resumes it
// after Abandon returns but a resume already under way.
func (x *Executor) Abandon(s *Scratch) {
	if s.waiting {
		s.wheel.Release(&s.timer)
		s.waiting = false
		x.acks.cancel(s.keys, &s.w)
	}
}

// Waiting reports whether scr's block has an ack wait open: a parked
// delivery, which Step or Abandon closes.
func (s *Scratch) Waiting() bool { return s.waiting }

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

// runBlock performs all enabled actions of s's current block into its
// newest BlockResult. A fire-and-forget confirmation succeeds the block
// at once; otherwise, with acks to wait for, the block arms its timeout
// and parks (true) unless an ack or the timeout already came. A block
// that does not park is judged before runBlock returns.
func (x *Executor) runBlock(s *Scratch) bool {
	br := &s.rep.Blocks[len(s.rep.Blocks)-1]
	b := &s.mode.Blocks[s.block]
	s.start, s.keys, s.confirmed = x.clk.Now(), s.keys[:0], false
	for _, action := range b.Actions {
		res := appendActionResult(&br.Actions, action.Address)
		address, ok := s.reg.Lookup(action.Address)
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
			sr, err := ch.Send(Send{
				To:      address.Target,
				User:    s.ctx.User,
				Shard:   s.ctx.Shard,
				Alert:   s.a,
				Payload: s.payload,
			})
			switch {
			case err != nil:
				res.Err = err
			case sr.Confirmed:
				res.Confirmed, s.confirmed = true, true
			default:
				res.Seq = sr.Seq
				key := ackKey{handle: address.Target, seq: sr.Seq}
				x.acks.register(key, pendingAck{w: &s.w, name: address.Name}, s.start)
				s.keys = append(s.keys, key)
			}
		}
	}
	if !s.confirmed && len(s.keys) > 0 {
		timeout := b.EffectiveTimeout()
		if b.Timeout == 0 && s.ctx.BlockTimeout > 0 {
			timeout = s.ctx.BlockTimeout
		}
		if s.wheel == nil {
			s.wheel = timewheel.New(x.clk, timewheel.Options{})
		}
		s.waiting = true
		s.wheel.Arm(&s.timer, timeout, &s.w)
		if x.acks.park(&s.w) {
			return true
		}
	}
	x.endBlock(s)
	return false
}

// endBlock closes the current block's wait and judges the block. An ack
// that found its key registered has acknowledged the IM even if the
// timeout came first, so it still succeeds the block; a second ack is
// dropped.
func (x *Executor) endBlock(s *Scratch) {
	br := &s.rep.Blocks[len(s.rep.Blocks)-1]
	if s.waiting {
		s.wheel.Release(&s.timer)
		s.waiting = false
	}
	var arr ackArrival
	acked := false
	if len(s.keys) > 0 {
		arr, acked = x.acks.cancel(s.keys, &s.w)
	}
	switch {
	case s.confirmed:
		br.Succeeded = true
	case len(s.keys) > 0:
		br.Succeeded = acked
		for i := range br.Actions {
			res := &br.Actions[i]
			switch {
			case res.Err != nil:
			case acked && res.AddressName == arr.name:
				res.AckedAt = arr.at
			case !acked:
				res.Err = ErrNoAck
			}
		}
	}
	br.Elapsed = x.clk.Now().Sub(s.start)
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
