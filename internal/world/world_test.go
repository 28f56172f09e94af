package world

import (
	"testing"
	"time"
)

// TestCloseStopsGateways: Close ends every SMS email gateway that
// CreatePersonalAccounts attached — each an actor on the world's clock
// — so none outlives the world parked for the life of the process.
// Both the façade's World and the harness's Testbed tear down through
// Close.
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
	w.Clock.Advance(time.Second)
	if n := w.Clock.Actors(); n != 2 {
		t.Fatalf("%d actors while the world runs, want 2 gateways", n)
	}
	w.Close()
	if n := w.Clock.Actors(); n != 0 {
		t.Fatalf("%d actors left after Close", n)
	}
	w.Close() // closing twice is harmless
}
