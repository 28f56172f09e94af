package aladdin

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/email"
)

// RemoteControl implements Aladdin's secure, email-based remote home
// automation (Section 2.3): the home gateway owns a mailbox; email
// from an authorized sender whose subject carries a command is
// executed against the house. Unauthorized or malformed commands are
// counted and dropped.
//
// Command grammar (subject line):
//
//	ALADDIN ARM            — arm the security system
//	ALADDIN DISARM         — disarm the security system
//	ALADDIN SET <sensor> <state>
type RemoteControl struct {
	home *Home
	mb   *email.Mailbox

	mu         sync.Mutex
	authorized map[string]bool
	executed   int
	rejected   int
	stop       chan struct{}
}

// EnableRemoteControl provisions (or reuses) the gateway mailbox and
// starts executing commands from the authorized senders.
func (h *Home) EnableRemoteControl(svc *email.Service, address string, authorized []string) (*RemoteControl, error) {
	if svc == nil || address == "" {
		return nil, errors.New("aladdin: remote control requires an email service and address")
	}
	mb, ok := svc.Mailbox(address)
	if !ok {
		var err error
		mb, err = svc.CreateMailbox(address)
		if err != nil {
			return nil, err
		}
	}
	rc := &RemoteControl{
		home:       h,
		mb:         mb,
		authorized: make(map[string]bool, len(authorized)),
		stop:       make(chan struct{}),
	}
	for _, a := range authorized {
		rc.authorized[strings.ToLower(a)] = true
	}
	h.cfg.Clock.Go(rc.run)
	return rc, nil
}

// Executed returns how many commands ran.
func (rc *RemoteControl) Executed() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.executed
}

// Rejected returns how many messages were dropped (unauthorized sender
// or malformed command).
func (rc *RemoteControl) Rejected() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.rejected
}

// Stop halts command processing.
func (rc *RemoteControl) Stop() {
	select {
	case <-rc.stop:
	default:
		close(rc.stop)
		clock.Notify(rc.home.cfg.Clock, rc.stop)
	}
}

func (rc *RemoteControl) run() {
	ticker := rc.home.cfg.Clock.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		clock.Wait(rc.home.cfg.Clock, rc.stop, rc.mb.Notify(), ticker.C())
		select {
		case <-rc.stop:
			return
		case <-rc.mb.Notify():
		case <-ticker.C():
		}
		select {
		case <-rc.stop:
			return
		default:
		}
		for _, msg := range rc.mb.Fetch() {
			rc.handle(msg)
		}
	}
}

func (rc *RemoteControl) handle(msg email.Message) {
	rc.mu.Lock()
	ok := rc.authorized[strings.ToLower(msg.From)]
	rc.mu.Unlock()
	if !ok {
		rc.reject()
		return
	}
	if err := rc.execute(msg.Subject); err != nil {
		rc.reject()
		return
	}
	rc.mu.Lock()
	rc.executed++
	rc.mu.Unlock()
}

func (rc *RemoteControl) reject() {
	rc.mu.Lock()
	rc.rejected++
	rc.mu.Unlock()
}

// execute parses and runs one command subject.
func (rc *RemoteControl) execute(subject string) error {
	fields := strings.Fields(strings.TrimSpace(subject))
	if len(fields) < 2 || !strings.EqualFold(fields[0], "ALADDIN") {
		return fmt.Errorf("aladdin: not a command: %q", subject)
	}
	switch strings.ToUpper(fields[1]) {
	case "ARM":
		rc.home.PressRemote(true)
		return nil
	case "DISARM":
		rc.home.PressRemote(false)
		return nil
	case "SET":
		if len(fields) != 4 {
			return fmt.Errorf("aladdin: SET wants <sensor> <state>: %q", subject)
		}
		return rc.home.TriggerSensor(fields[2], strings.ToUpper(fields[3]))
	default:
		return fmt.Errorf("aladdin: unknown command %q", fields[1])
	}
}
