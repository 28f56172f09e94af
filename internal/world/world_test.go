package world

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// gateways counts the live (*sms.Bridge).run goroutines.
func gateways() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "sms.(*Bridge).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseStopsGateways: Close stops every SMS email gateway that
// CreatePersonalAccounts attached, so no (*Bridge).run goroutine
// outlives the world — each one would stay parked for the life of the
// process, and every later clock-driver dump would walk it. Both the
// façade's World and the harness's Testbed tear down through Close.
func TestCloseStopsGateways(t *testing.T) {
	w, err := New(Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreatePersonalAccounts("", nil, "5550001"); err != nil {
		t.Fatal(err)
	}
	if err := w.CreatePersonalAccounts("", nil, "5550002"); err != nil {
		t.Fatal(err)
	}
	w.Clock.Step(time.Second) // let both gateways park in their loops
	if n := gateways(); n != 2 {
		t.Fatalf("%d gateway goroutines while the world runs, want 2", n)
	}
	w.Close()
	if n := gateways(); n != 0 {
		t.Fatalf("%d gateway goroutines left after Close", n)
	}
	w.Close() // closing twice is harmless
}
