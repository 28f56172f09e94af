package simba_test

import (
	"path/filepath"
	"testing"
	"time"

	"simba"
)

// facadeFixture wires a buddy+user over the public API for source tests.
type facadeFixture struct {
	t     *testing.T
	world *simba.World
	buddy *simba.Buddy
	user  *simba.EndUser
	link  *simba.SourceLink
}

func newFacadeFixture(t *testing.T) *facadeFixture {
	t.Helper()
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(world.Close)
	if err := world.CreatePersonalAccounts("u-im", []string{"u@work.sim"}, "5559999"); err != nil {
		t.Fatal(err)
	}
	buddy, err := simba.NewBuddy(world, simba.BuddyOptions{
		IMHandle: "fx-buddy", EmailAddress: "fx-buddy@sim",
		LogPath:                    filepath.Join(t.TempDir(), "buddy.plog"),
		DisableNightlyRejuvenation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"aladdin", "wish"} {
		buddy.Classifier().Accept(simba.SourceRule{Source: src, Extract: simba.ExtractNative})
	}
	buddy.Aggregator().Map("Security", "News")
	buddy.Aggregator().Map("Location", "News")
	profile, err := buddy.Store().RegisterUser("u")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []simba.Address{
		{Type: simba.TypeIM, Name: "IM", Target: "u-im", Enabled: true},
		{Type: simba.TypeEmail, Name: "EM", Target: "u@work.sim", Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := profile.DefineMode(simba.IMThenEmailMode("IM", "EM", simba.ModeDuration(10*time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := buddy.Store().Subscribe("News", "u", "IMThenEmail"); err != nil {
		t.Fatal(err)
	}
	user, err := simba.NewUser(world, simba.UserOptions{Name: "u", IMHandle: "u-im"})
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(user.Stop)
	if err := simba.StartBuddy(world, buddy); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(buddy.Kill)
	link, err := simba.NewSourceLink(world, "fx-src", "fx-src@sim", buddy, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(link.Stop)
	return &facadeFixture{t: t, world: world, buddy: buddy, user: user, link: link}
}

func TestFacadeHome(t *testing.T) {
	f := newFacadeFixture(t)
	home, err := simba.NewHome(f.world, f.link, simba.HomeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	home.PressRemote(true)
	if !f.world.Clock.RunUntil(func() bool { return f.user.ReceiptCount() >= 1 }, time.Second, 2*time.Minute) {
		t.Fatal("home alert never reached the user")
	}
}

func TestFacadeWISH(t *testing.T) {
	f := newFacadeFixture(t)
	server, err := simba.NewWISHServer(f.world, f.link, simba.WISHOptions{
		APs: []simba.AccessPoint{
			simba.WISHAP("a", 0, 0), simba.WISHAP("b", 40, 0),
			simba.WISHAP("c", 0, 30), simba.WISHAP("d", 40, 30),
		},
		Zones: []simba.Zone{
			simba.WISHZone("west", 0, 0, 20, 30),
			simba.WISHZone("east", 20, 0, 40, 30),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	server.Track("walker", "u")
	client, err := simba.NewWISHClient(f.world, server, "walker", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client.MoveTo(10, 15)
	client.Start()
	defer client.Stop()
	f.world.Clock.RunFor(5*time.Second, time.Second)
	before := f.user.ReceiptCount() // settling may already have flapped a zone alert
	client.MoveTo(30, 15)
	if !f.world.Clock.RunUntil(func() bool { return f.user.ReceiptCount() > before }, time.Second, 2*time.Minute) {
		t.Fatal("location alert never reached the user")
	}
}

func TestFacadeSourceLinkValidation(t *testing.T) {
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	if _, err := simba.NewSourceLink(world, "x", "x@sim", nil, 0); err == nil {
		t.Fatal("nil buddy accepted")
	}
}
