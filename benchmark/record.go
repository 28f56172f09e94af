package main

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/core"
	"simba/internal/hub"
	"simba/internal/im"
)

const (
	ackDelay   = 5 * time.Millisecond
	ackTimeout = 20 * time.Millisecond
)

var (
	errGateKilled = errors.New("benchmark: channel closed by kill")
	errIMRefused  = errors.New("benchmark: IM service refused the message")
	errEmailDown  = errors.New("benchmark: email relay unavailable")
)

// recorder is the benchmark's side of every channel: what the users
// actually received, and when. It outlives the hub incarnations of one
// episode, so a kill/recover cycle is judged across the restart. All
// times are nanoseconds since base.
type recorder struct {
	base time.Time
	in   *inputs

	stamp     []int64 // burst creation (closed loop) or due time (open loop)
	admitAt   []int64 // onCommitted fired with a nil error
	deliverAt []int64 // the Send that finally confirmed the alert
	order     []uint64
	dseq      []int64 // global confirmation sequence, for per-user order
	confirms  []atomic.Int32
	tries     []atomic.Int32 // email sends seen per alert
	imSends   []atomic.Int32 // IM sends seen per alert
	fellBack  []atomic.Bool  // a classAcked alert was emailed: its ack missed the hub's wait

	seq       atomic.Int64
	delivered atomic.Int64 // confirmed non-warm alerts
	warmed    atomic.Int64
	imSeq     atomic.Uint64

	// target/done signal the harness when the delivered count reaches a
	// phase's expected total; target is -1 while disarmed.
	target atomic.Int64
	mu     sync.Mutex
	done   chan struct{}

	tr *tracer // nil on measured runs
}

func newRecorder(in *inputs, tr *tracer) *recorder {
	n := len(in.alerts)
	r := &recorder{
		base: time.Now(), in: in,
		stamp: make([]int64, n), admitAt: make([]int64, n), deliverAt: make([]int64, n),
		order: make([]uint64, n), dseq: make([]int64, n),
		confirms: make([]atomic.Int32, n), tries: make([]atomic.Int32, n),
		imSends: make([]atomic.Int32, n), fellBack: make([]atomic.Bool, n),
		tr: tr,
	}
	r.target.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// index maps an alert ID back to its position in the inputs; warm-up
// alerts ("w…") report -1.
func (r *recorder) index(id string) int {
	if len(id) < 2 || id[0] != 'a' {
		return -1
	}
	i, err := strconv.Atoi(id[1:])
	if err != nil || i >= len(r.stamp) {
		return -1
	}
	return i
}

// await arms the completion signal: the returned channel closes once
// total non-warm alerts have been confirmed since the recorder was
// built.
func (r *recorder) await(total int64) <-chan struct{} {
	r.mu.Lock()
	done := make(chan struct{})
	r.done = done
	r.target.Store(total)
	r.mu.Unlock()
	if r.delivered.Load() >= total {
		r.fire(total)
	}
	return done
}

// fire closes the completion channel armed for total, once.
func (r *recorder) fire(total int64) {
	r.mu.Lock()
	if r.target.Load() == total {
		close(r.done)
		r.target.Store(-1)
	}
	r.mu.Unlock()
}

// confirm records the delivery the user saw at time at.
func (r *recorder) confirm(i int, at int64) {
	if i < 0 {
		r.warmed.Add(1)
		return
	}
	// Only the first confirmation places the alert in time and order: a
	// late acknowledgement of an alert the hub already emailed must not
	// move it behind the tenant's next one.
	if r.confirms[i].Add(1) == 1 {
		r.deliverAt[i] = at
		r.dseq[i] = r.seq.Add(1)
	}
	n := r.delivered.Add(1)
	if t := r.target.Load(); t >= 0 && n >= t {
		r.fire(t)
	}
}

// gate lets crash_recovery hold deliveries back so acked alerts pile up
// undelivered: a closed gate blocks every Send until it is opened, or
// fails it once the hub was killed (a failed Send is not a delivery).
type gate struct {
	closed atomic.Bool
	open   chan struct{}
	kill   chan struct{}
}

func newGate() *gate { return &gate{open: make(chan struct{}), kill: make(chan struct{})} }

func (g *gate) pass() error {
	if !g.closed.Load() {
		return nil
	}
	select {
	case <-g.open:
		return nil
	case <-g.kill:
		return errGateKilled
	}
}

// channels is one hub incarnation's set of benchmark channels over a
// shared recorder.
type channels struct {
	r    *recorder
	gate *gate
	hub  *hub.Hub // set once hub.New returned; read by the ack pump
	acks chan pendingAck
	wg   sync.WaitGroup
}

type pendingAck struct {
	idx    int
	sentAt int64
	handle string
	seq    uint64
}

func newChannels(r *recorder) *channels {
	return &channels{r: r, gate: newGate()}
}

// registry builds the core.Channels the hub delivers through: the
// counting sink for flat tenants, and IM + email for mode tenants.
func (c *channels) registry(modes bool) *core.Channels {
	reg := core.NewChannels().Register(addr.TypeSink, core.ChannelFunc(c.sendSink))
	if modes {
		// Sized to the delivery window (8 shards × 32) with room: a full
		// buffer would make Send wait on the pump.
		c.acks = make(chan pendingAck, 1024)
		c.wg.Add(1)
		go c.pump()
		reg.Register(addr.TypeIM, core.ChannelFunc(c.sendIM)).
			Register(addr.TypeEmail, core.ChannelFunc(c.sendEmail))
	}
	return reg
}

// stop ends the ack pump after the hub has stopped sending.
func (c *channels) stop() {
	if c.acks != nil {
		close(c.acks)
		c.wg.Wait()
	}
}

// sendSink is the instant counting channel: accept is delivery.
func (c *channels) sendSink(req core.Send) (core.SendResult, error) {
	r := c.r
	i := r.index(req.Alert.ID)
	var t0 int64
	if r.tr != nil {
		t0 = r.now()
		r.tr.firstSend(i, t0)
	}
	if err := c.gate.pass(); err != nil {
		return core.SendResult{}, err
	}
	at := r.now()
	r.confirm(i, at)
	if r.tr != nil {
		r.tr.sendTime(i, r.now()-t0)
	}
	return core.SendResult{Confirmed: true}, nil
}

// sendIM sends over the ack-based channel: classAcked alerts are
// acknowledged ackDelay later by the pump, classNoAck never, classHard
// (and warm-up) sends are refused outright so the block fails over
// without waiting.
func (c *channels) sendIM(req core.Send) (core.SendResult, error) {
	r := c.r
	i := r.index(req.Alert.ID)
	if i < 0 || r.in.class[i] == classHard {
		return core.SendResult{}, errIMRefused
	}
	at := r.now()
	if r.tr != nil {
		r.tr.firstSend(i, at)
	}
	r.imSends[i].Add(1)
	seq := r.imSeq.Add(1)
	if r.in.class[i] == classAcked {
		c.acks <- pendingAck{idx: i, sentAt: at, handle: req.To, seq: seq}
	}
	if r.tr != nil {
		r.tr.sendTime(i, r.now()-at)
	}
	return core.SendResult{Seq: seq}, nil
}

// pump is the one FIFO goroutine that plays the IM users: it
// acknowledges each classAcked send ackDelay after it was made. The
// delivery the user saw is the IM send itself, so that is the time
// confirmed.
func (c *channels) pump() {
	defer c.wg.Done()
	r := c.r
	for a := range c.acks {
		if wait := a.sentAt + int64(ackDelay) - r.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		now := r.now()
		// Confirm first: the ack frees the tenant's chain, and its next
		// alert must not be sequenced ahead of this one.
		r.confirm(a.idx, a.sentAt)
		c.hub.HandleIncoming(im.Message{From: a.handle, Text: core.AckText(a.seq)})
		if r.tr != nil {
			r.tr.ackTime(a.idx, now-a.sentAt)
		}
	}
}

// sendEmail is fire-and-forget: accept is delivery, except that a
// classHard alert's first hardFails sends fail.
func (c *channels) sendEmail(req core.Send) (core.SendResult, error) {
	r := c.r
	i := r.index(req.Alert.ID)
	at := r.now()
	if i >= 0 {
		if r.tr != nil {
			r.tr.firstSend(i, at)
		}
		tries := r.tries[i].Add(1)
		switch r.in.class[i] {
		case classHard:
			if tries <= hardFails {
				return core.SendResult{}, errEmailDown
			}
		case classAcked:
			r.fellBack[i].Store(true)
		}
	}
	r.confirm(i, at)
	if r.tr != nil && i >= 0 {
		r.tr.sendTime(i, r.now()-at)
	}
	return core.SendResult{Confirmed: true}, nil
}
