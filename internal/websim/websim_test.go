package websim

import (
	"errors"
	"testing"
	"time"

	"simba/internal/clock"
)

func newWeb(t *testing.T) (*Web, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	w, err := New(sim, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return w, sim
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestCreateSiteValidation(t *testing.T) {
	w, _ := newWeb(t)
	if _, err := w.CreateSite(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := w.CreateSite("a/b"); err == nil {
		t.Fatal("slash in name accepted")
	}
	if _, err := w.CreateSite("cnn"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateSite("cnn"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, ok := w.Site("cnn"); !ok {
		t.Fatal("Site lookup failed")
	}
}

func TestGetContent(t *testing.T) {
	w, sim := newWeb(t)
	site, _ := w.CreateSite("cnn")
	site.SetContent("election", "Gore 2000 Bush 1999", sim.Now())

	var content string
	var err error
	if derr := sim.Drive(func() { content, err = w.Get("cnn/election") }, 100*time.Millisecond); derr != nil {
		t.Fatal(derr)
	}
	if err != nil || content != "Gore 2000 Bush 1999" {
		t.Fatalf("Get = %q, %v", content, err)
	}
}

func TestGetErrors(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w, err := New(sim, -1) // default delay
	if err != nil {
		t.Fatal(err)
	}
	// Drive the clock through each fetch delay.
	get := func(url string) (err error) {
		if derr := sim.Drive(func() { _, err = w.Get(url) }, time.Second); derr != nil {
			t.Fatal(derr)
		}
		return err
	}
	if err := get("noslash"); err == nil {
		t.Fatal("malformed url accepted")
	}
	if err := get("ghost/page"); !errors.Is(err, ErrNoSuchSite) {
		t.Fatalf("Get(ghost) = %v", err)
	}
	site, _ := w.CreateSite("cnn")
	if err := get("cnn/missing"); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("Get(missing page) = %v", err)
	}
	site.SetContent("p", "x", sim.Now())
	site.Down().Set(true, sim.Now())
	if err := get("cnn/p"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Get(down site) = %v", err)
	}
	site.Down().Set(false, sim.Now())
	if err := get("cnn/p"); err != nil {
		t.Fatalf("Get after recovery = %v", err)
	}
}

func TestVersionTracksChanges(t *testing.T) {
	w, sim := newWeb(t)
	site, _ := w.CreateSite("s")
	if site.Version("p") != 0 {
		t.Fatal("missing page has a version")
	}
	site.SetContent("p", "v1", sim.Now())
	site.SetContent("p", "v1", sim.Now()) // unchanged: version stays
	if got := site.Version("p"); got != 1 {
		t.Fatalf("Version = %d", got)
	}
	site.SetContent("p", "v2", sim.Now())
	if got := site.Version("p"); got != 2 {
		t.Fatalf("Version = %d", got)
	}
}

func TestScheduleUpdate(t *testing.T) {
	w, sim := newWeb(t)
	site, _ := w.CreateSite("s")
	site.SetContent("p", "before", sim.Now())
	site.ScheduleUpdate(sim, time.Minute, "p", "after")
	sim.Advance(59 * time.Second)
	if site.Version("p") != 1 {
		t.Fatal("update fired early")
	}
	sim.Advance(2 * time.Second)
	if site.Version("p") != 2 {
		t.Fatal("scheduled update never fired")
	}
}
