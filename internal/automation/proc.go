// Package automation simulates the environment SIMBA's exception-
// handling automation contends with: GUI communication client software
// driven through automation interfaces, running as killable processes
// on a machine whose desktop can sprout modal dialog boxes.
//
// The simulator reproduces every failure mode the paper reports:
//
//   - the client process crashes, leaving the caller's automation
//     pointers stale (ErrStaleHandle);
//   - the client hangs, making automation calls block until the
//     process is killed;
//   - the client or the system pops up a modal dialog box that no
//     automation interface can close, blocking all progress until
//     something "clicks" a button (the paper's monkey thread);
//   - the IM client is spontaneously logged out by server recovery or
//     network disconnection;
//   - new-message events are silently lost even though the messages
//     sit in the store;
//   - slow memory leaks accumulate until rejuvenation;
//   - the whole machine loses power or is rebooted.
package automation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/clock"
)

// Automation errors.
var (
	// ErrStaleHandle is returned by every automation call against a
	// process that has crashed, exited, or been killed: the caller's
	// pointers into the software are no longer valid.
	ErrStaleHandle = errors.New("automation: stale handle (process gone)")
	// ErrMachineOff indicates the machine has no power.
	ErrMachineOff = errors.New("automation: machine is powered off")
)

// ProcState is the externally observable state of a process. A hung
// process still shows as running in the process table; hangs are only
// observable through call timeouts.
type ProcState int

// Process states.
const (
	StateRunning ProcState = iota + 1
	StateHung              // internal: calls block; process table still shows running
	StateCrashed
	StateExited
)

// String implements fmt.Stringer.
func (s ProcState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateHung:
		return "hung"
	case StateCrashed:
		return "crashed"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

var pidCounter atomic.Int64

// Proc is one running process instance. Client apps embed it.
type Proc struct {
	name    string
	pid     int64
	machine *Machine

	mu        sync.Mutex
	state     ProcState
	wake      chan struct{} // closed to re-examine blocking conditions
	dead      chan struct{} // closed when the process terminates
	memoryMB  float64
	leakPerOp float64
	blockers  int // open modal dialogs owned by this proc
}

// newProc registers a fresh process on the machine.
func newProc(name string, m *Machine) *Proc {
	p := &Proc{
		name:     name,
		pid:      pidCounter.Add(1),
		machine:  m,
		state:    StateRunning,
		wake:     make(chan struct{}),
		dead:     make(chan struct{}),
		memoryMB: 40, // baseline working set
	}
	m.register(p)
	return p
}

// Name returns the program name.
func (p *Proc) Name() string { return p.name }

// PID returns the process ID.
func (p *Proc) PID() int64 { return p.pid }

// Running reports whether the process still appears in the process
// table — the first check of the paper's sanity-checking API. Hung
// processes still report true.
func (p *Proc) Running() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == StateRunning || p.state == StateHung
}

// State returns the externally visible state: a hung process reports
// StateRunning (hangs are only detectable through call timeouts).
func (p *Proc) State() ProcState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateHung {
		return StateRunning
	}
	return p.state
}

// MemoryMB returns the current working-set size, observable from the
// outside (task manager style) even when the process is hung.
func (p *Proc) MemoryMB() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.memoryMB
}

// SetLeakRate makes every subsequent automation call leak mb of
// memory, modeling the paper's "memory leaks in rarely executed
// branches of code or in third-party software".
func (p *Proc) SetLeakRate(mbPerOp float64) {
	p.mu.Lock()
	p.leakPerOp = mbPerOp
	p.mu.Unlock()
}

// Hang transitions the process into the hung state: all automation
// calls block until the process is killed.
func (p *Proc) Hang() {
	p.mu.Lock()
	if p.state == StateRunning {
		p.state = StateHung
	}
	p.mu.Unlock()
}

// Crash makes the process die abruptly. Automation calls return
// ErrStaleHandle from now on, including calls blocked in a hang.
func (p *Proc) Crash() { p.terminate(StateCrashed) }

// Kill terminates the process (the shutdown/restart API's kill step,
// or the end of an orderly shutdown).
func (p *Proc) Kill() { p.terminate(StateExited) }

func (p *Proc) terminate(final ProcState) {
	p.mu.Lock()
	if p.state == StateCrashed || p.state == StateExited {
		p.mu.Unlock()
		return
	}
	p.state = final
	close(p.dead)
	close(p.wake)
	p.wake = make(chan struct{})
	p.mu.Unlock()
	p.machine.unregister(p)
	p.machine.desktop.closeOwnedBy(p)
}

// gate is called at the top of every automation operation. It blocks
// while the process is hung or a modal dialog it owns is open, returns
// ErrStaleHandle once the process is gone, and charges the leak rate.
func (p *Proc) gate() error {
	for {
		p.mu.Lock()
		switch {
		case p.state == StateCrashed || p.state == StateExited:
			p.mu.Unlock()
			return ErrStaleHandle
		case p.state == StateHung || p.blockers > 0:
			ch := p.wake
			p.mu.Unlock()
			<-ch
		default:
			p.memoryMB += p.leakPerOp
			p.mu.Unlock()
			return nil
		}
	}
}

// addBlocker/removeBlocker track modal dialogs owned by this process.
func (p *Proc) addBlocker() {
	p.mu.Lock()
	p.blockers++
	p.mu.Unlock()
}

func (p *Proc) removeBlocker() {
	p.mu.Lock()
	if p.blockers > 0 {
		p.blockers--
	}
	if p.blockers == 0 && p.state != StateCrashed && p.state != StateExited {
		close(p.wake)
		p.wake = make(chan struct{})
	}
	p.mu.Unlock()
}

// Dialog is a modal dialog box on the desktop.
type Dialog struct {
	ID      int64
	Caption string
	Buttons []string
	// OwnerPID is zero for dialogs popped by "other parts of the
	// system", which no client app controls.
	OwnerPID int64
	OpenedAt time.Time

	owner *Proc
}

var dialogCounter atomic.Int64

// Desktop is the machine's interactive screen: the place dialog boxes
// appear and the surface the monkey thread scans.
type Desktop struct {
	mu      sync.Mutex
	dialogs []*Dialog
}

// PopDialog opens a modal dialog. owner may be nil for system dialogs.
// A dialog owned by a process blocks that process's automation calls
// until dismissed.
func (d *Desktop) PopDialog(caption string, buttons []string, owner *Proc, now time.Time) *Dialog {
	dlg := &Dialog{
		ID:       dialogCounter.Add(1),
		Caption:  caption,
		Buttons:  append([]string(nil), buttons...),
		OpenedAt: now,
		owner:    owner,
	}
	if owner != nil {
		dlg.OwnerPID = owner.PID()
		owner.addBlocker()
	}
	d.mu.Lock()
	d.dialogs = append(d.dialogs, dlg)
	d.mu.Unlock()
	return dlg
}

// Open returns the currently open dialogs, oldest first.
func (d *Desktop) Open() []Dialog {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Dialog, 0, len(d.dialogs))
	for _, dlg := range d.dialogs {
		out = append(out, *dlg)
	}
	return out
}

// ClickButton simulates sending mouse-button-down/up messages to the
// named button of the first open dialog with the given caption — the
// monkey thread's only tool. It reports whether a dialog was
// dismissed; clicking a button the dialog does not have does nothing.
func (d *Desktop) ClickButton(caption, button string) bool {
	d.mu.Lock()
	for i, dlg := range d.dialogs {
		if dlg.Caption != caption {
			continue
		}
		if !hasButton(dlg, button) {
			continue
		}
		d.dialogs = append(d.dialogs[:i], d.dialogs[i+1:]...)
		owner := dlg.owner
		d.mu.Unlock()
		if owner != nil {
			owner.removeBlocker()
		}
		return true
	}
	d.mu.Unlock()
	return false
}

// closeOwnedBy removes dialogs owned by a dead process (its windows
// vanish with it).
func (d *Desktop) closeOwnedBy(p *Proc) {
	d.mu.Lock()
	kept := d.dialogs[:0]
	for _, dlg := range d.dialogs {
		if dlg.owner == p {
			continue
		}
		kept = append(kept, dlg)
	}
	d.dialogs = kept
	d.mu.Unlock()
}

// clear removes every dialog (machine reboot).
func (d *Desktop) clear() {
	d.mu.Lock()
	dialogs := d.dialogs
	d.dialogs = nil
	d.mu.Unlock()
	for _, dlg := range dialogs {
		if dlg.owner != nil {
			dlg.owner.removeBlocker()
		}
	}
}

func hasButton(dlg *Dialog, button string) bool {
	for _, b := range dlg.Buttons {
		if b == button {
			return true
		}
	}
	return false
}

// Machine models the desktop PC that MyAlertBuddy and its client
// software run on: a process table, a desktop, and a power switch. A
// UPS can be attached — the fix the paper deployed after its one
// power-outage failure — letting the machine ride through outages.
type Machine struct {
	clk     clock.Clock
	desktop *Desktop

	mu       sync.Mutex
	powered  bool
	ups      bool
	procs    map[int64]*Proc
	reboots  int
	survived int // outages ridden through on UPS
}

// NewMachine returns a powered-on machine.
func NewMachine(clk clock.Clock) *Machine {
	return &Machine{
		clk:     clk,
		desktop: &Desktop{},
		powered: true,
		procs:   make(map[int64]*Proc),
	}
}

// Desktop returns the machine's desktop.
func (m *Machine) Desktop() *Desktop { return m.desktop }

// Powered reports whether the machine has power.
func (m *Machine) Powered() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.powered
}

// PowerOff cuts utility power. Without a UPS every process dies
// instantly and the desktop clears; with one the machine rides the
// outage through. Nothing can launch until PowerOn unless on UPS.
func (m *Machine) PowerOff() {
	m.mu.Lock()
	if m.ups {
		m.survived++
		m.mu.Unlock()
		return
	}
	m.powered = false
	procs := make([]*Proc, 0, len(m.procs))
	for _, p := range m.procs {
		procs = append(procs, p)
	}
	m.mu.Unlock()
	for _, p := range procs {
		p.Crash()
	}
	m.desktop.clear()
}

// SetUPS attaches or detaches an uninterruptible power supply.
func (m *Machine) SetUPS(attached bool) {
	m.mu.Lock()
	m.ups = attached
	m.mu.Unlock()
}

// OutagesSurvived reports how many power outages the UPS absorbed.
func (m *Machine) OutagesSurvived() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.survived
}

// PowerOn restores power.
func (m *Machine) PowerOn() {
	m.mu.Lock()
	m.powered = true
	m.mu.Unlock()
}

// Reboot kills every process, clears the desktop, and blocks for
// bootTime of virtual time. It is the MDC's last-resort escalation.
func (m *Machine) Reboot(bootTime time.Duration) {
	m.mu.Lock()
	procs := make([]*Proc, 0, len(m.procs))
	for _, p := range m.procs {
		procs = append(procs, p)
	}
	m.reboots++
	m.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
	m.desktop.clear()
	m.clk.Sleep(bootTime)
}

// Reboots returns how many times the machine has been rebooted.
func (m *Machine) Reboots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reboots
}

// Processes returns the live process list.
func (m *Machine) Processes() []*Proc {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Proc, 0, len(m.procs))
	for _, p := range m.procs {
		out = append(out, p)
	}
	return out
}

// StartProc launches a bare process with the given name, failing when
// the machine has no power.
func (m *Machine) StartProc(name string) (*Proc, error) {
	if !m.Powered() {
		return nil, ErrMachineOff
	}
	return newProc(name, m), nil
}

func (m *Machine) register(p *Proc) {
	m.mu.Lock()
	m.procs[p.pid] = p
	m.mu.Unlock()
}

func (m *Machine) unregister(p *Proc) {
	m.mu.Lock()
	delete(m.procs, p.pid)
	m.mu.Unlock()
}
