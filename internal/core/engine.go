package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/dmode"
	"simba/internal/im"
)

// Delivery errors.
var (
	// ErrNoChannel indicates no channel is registered for an action's
	// communication type.
	ErrNoChannel = errors.New("core: no sender configured for channel")
	// ErrUnknownAddress indicates an action references a friendly name
	// absent from the user's registry.
	ErrUnknownAddress = errors.New("core: action references unknown address")
	// ErrAddressDisabled indicates the referenced address is disabled.
	ErrAddressDisabled = errors.New("core: address disabled")
	// ErrAllBlocksFailed indicates every communication block failed.
	ErrAllBlocksFailed = errors.New("core: all delivery blocks failed")
	// ErrNoAck is the error of an ack-based action whose acknowledgement
	// did not arrive within its block's timeout (the block's Elapsed in
	// the report says how long that was).
	ErrNoAck = errors.New("core: no acknowledgement within the block timeout")
)

// IMSender transmits instant messages. Both commgr.IMManager and the
// lightweight DirectIM adapter satisfy it.
type IMSender interface {
	// Send transmits text and returns the IM message sequence number.
	Send(to, text string) (uint64, error)
}

// EmailSender submits email. Both commgr.EmailManager and the
// DirectEmail adapter satisfy it.
type EmailSender interface {
	Send(to, subject, body string) error
}

// ackPrefix tags application-level acknowledgement IMs; per the paper,
// acks are tagged with the IM message sequence numbers.
const ackPrefix = "SIMBA-ACK "

// AckText builds the acknowledgement text for a received IM alert. It
// is built in a fixed array so that, inlined at a call site where the
// text does not escape, the conversion to string allocates nothing.
func AckText(seq uint64) string {
	var b [len(ackPrefix) + 20]byte
	return string(strconv.AppendUint(append(b[:0], ackPrefix...), seq, 10))
}

// ParseAck reports whether text is an acknowledgement and, if so, the
// acknowledged sequence number.
func ParseAck(text string) (uint64, bool) {
	rest, ok := strings.CutPrefix(text, ackPrefix)
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// ActionResult records one action's outcome.
type ActionResult struct {
	// AddressName is the friendly name the action referenced.
	AddressName string
	// Type is the communication type actually used (zero if unknown).
	Type addr.Type
	// Target is the network address used.
	Target string
	// Seq is the channel message sequence number (ack-based channels
	// only).
	Seq uint64
	// Confirmed reports that the channel confirmed delivery at send
	// time (fire-and-forget channels).
	Confirmed bool
	// Err is the send or confirmation error, nil on success.
	Err error
	// AckedAt is when the acknowledgement arrived (ack-based channels
	// only).
	AckedAt time.Time
}

// BlockResult records one communication block's outcome.
type BlockResult struct {
	Index     int
	Actions   []ActionResult
	Succeeded bool
	Elapsed   time.Duration
}

// ActionError is one action failure in debuggable form: which block,
// which address (friendly name, channel type, network target), and the
// error text. It lets block-fallback causes be reconstructed from logs
// instead of only ErrAllBlocksFailed.
type ActionError struct {
	Block       int
	AddressName string
	Type        addr.Type
	Target      string
	Err         string
}

// String renders the failure as "block 0 IM Pager(alice@im): refused".
func (e ActionError) String() string {
	t := string(e.Type)
	if t == "" {
		t = "?"
	}
	return fmt.Sprintf("block %d %s %s(%s): %s", e.Block, t, e.AddressName, e.Target, e.Err)
}

// Report summarizes one delivery-mode execution.
type Report struct {
	AlertKey  string
	ModeName  string
	Blocks    []BlockResult
	Delivered bool
	// DeliveredVia is the friendly name of the address that confirmed
	// delivery ("" when not delivered).
	DeliveredVia string
	StartedAt    time.Time
	FinishedAt   time.Time
}

// Latency returns the total delivery time.
func (r *Report) Latency() time.Duration { return r.FinishedAt.Sub(r.StartedAt) }

// ActionErrors collects every failed action across all executed
// blocks, in execution order.
func (r *Report) ActionErrors() []ActionError {
	var out []ActionError
	for _, b := range r.Blocks {
		for _, a := range b.Actions {
			if a.Err == nil {
				continue
			}
			out = append(out, ActionError{
				Block:       b.Index,
				AddressName: a.AddressName,
				Type:        a.Type,
				Target:      a.Target,
				Err:         a.Err.Error(),
			})
		}
	}
	return out
}

// FailureSummary renders every action failure on one line, for
// embedding in delivery errors and logs.
func (r *Report) FailureSummary() string {
	errs := r.ActionErrors()
	if len(errs) == 0 {
		return "no action failures recorded"
	}
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// DeliveredType returns the communication type of the address that
// confirmed delivery ("" when not delivered).
func (r *Report) DeliveredType() addr.Type {
	if !r.Delivered || r.DeliveredVia == "" {
		return ""
	}
	for _, b := range r.Blocks {
		if !b.Succeeded {
			continue
		}
		for _, a := range b.Actions {
			if a.AddressName == r.DeliveredVia {
				return a.Type
			}
		}
	}
	return ""
}

// Engine is the buddy-side delivery shell: an Executor over the
// classic IM + email sender pair plus the acknowledgement tracking the
// buddy's receive loop feeds. It is kept for the personal
// (one-user-per-process) path; shared substrates like the hub use an
// Executor with their own channel registry directly. It is safe for
// concurrent use; any number of Deliver calls may be in flight.
type Engine struct {
	exec *Executor
}

// NewEngine builds a delivery engine. Either sender may be nil when
// the caller has no channel of that type; actions needing it fail with
// ErrNoChannel. SMS actions ride the carrier's email gateway (the
// paper's original wiring); callers wanting direct carrier submission
// register NewSMSChannel on Channels.
func NewEngine(clk clock.Clock, imSender IMSender, emailSender EmailSender) (*Engine, error) {
	if clk == nil {
		return nil, errors.New("core: clock is required")
	}
	channels := NewChannels()
	if imSender != nil {
		channels.Register(addr.TypeIM, NewIMChannel(imSender))
	}
	if emailSender != nil {
		email := NewEmailChannel(emailSender)
		channels.Register(addr.TypeEmail, email)
		channels.Register(addr.TypeSMS, email)
	}
	exec, err := NewExecutor(clk, channels, nil)
	if err != nil {
		return nil, err
	}
	return &Engine{exec: exec}, nil
}

// Executor returns the engine's underlying mode executor, for callers
// that deliver with an explicit DeliveryContext or share the executor
// across components.
func (e *Engine) Executor() *Executor { return e.exec }

// Channels returns the engine's channel registry, so additional
// channel types (e.g. direct-carrier SMS) can be plugged in.
func (e *Engine) Channels() *Channels { return e.exec.Channels() }

// HandleIncoming inspects an incoming IM. If it is an acknowledgement
// for a pending IM action, the ack is resolved and HandleIncoming
// reports true (the message is consumed). All other messages report
// false and should be processed by the caller.
func (e *Engine) HandleIncoming(msg im.Message) bool {
	return e.exec.Acks().HandleIncoming(msg)
}

// PendingAcks reports how many IM acknowledgements are outstanding.
func (e *Engine) PendingAcks() int { return e.exec.Acks().Pending() }

// Deliver executes the delivery mode for one alert against the user's
// address registry, trying blocks in order until one succeeds. It
// blocks for up to the sum of the blocks' timeouts (only blocks that
// must wait for an acknowledgement consume their timeout).
func (e *Engine) Deliver(a *alert.Alert, reg *addr.Registry, mode *dmode.Mode) (*Report, error) {
	return e.exec.Deliver(a, reg, mode)
}
