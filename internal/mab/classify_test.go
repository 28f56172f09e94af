package mab

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/email"
	"simba/internal/race"
)

func TestClassifierAcceptAndReject(t *testing.T) {
	c := new(Classifier)
	a := &alert.Alert{Source: "yahoo.sim", Keywords: []string{"Stocks"}}
	if _, accepted := c.Classify(a, ""); accepted {
		t.Fatal("empty classifier accepted an alert")
	}
	c.Accept(SourceRule{Source: "yahoo.sim", Extract: ExtractNative})
	kws, accepted := c.Classify(a, "")
	if !accepted || len(kws) != 1 || kws[0] != "Stocks" {
		t.Fatalf("Classify = %v, %v", kws, accepted)
	}
	c.Remove("yahoo.sim")
	if _, accepted := c.Classify(a, ""); accepted {
		t.Fatal("removed source still accepted")
	}
}

func TestClassifierExtractSender(t *testing.T) {
	c := new(Classifier)
	c.Accept(SourceRule{Source: "yahoo.sim", Extract: ExtractSender})
	a := &alert.Alert{Source: "yahoo.sim", Subject: "ignored"}
	kws, accepted := c.Classify(a, "stocks.earnings-reports@yahoo.sim")
	if !accepted {
		t.Fatal("not accepted")
	}
	want := []string{"stocks", "earnings", "reports"}
	if len(kws) != len(want) {
		t.Fatalf("keywords = %v", kws)
	}
	for i := range want {
		if kws[i] != want[i] {
			t.Fatalf("keywords = %v, want %v", kws, want)
		}
	}
	if kws, _ := c.Classify(a, ""); len(kws) != 0 {
		t.Fatalf("keywords from empty sender = %v", kws)
	}
}

func TestClassifierExtractSubject(t *testing.T) {
	c := new(Classifier)
	c.Accept(SourceRule{Source: "msn-mobile", Extract: ExtractSubject})
	a := &alert.Alert{Source: "msn-mobile", Subject: "Stocks: MSFT up 3%"}
	kws, _ := c.Classify(a, "")
	if len(kws) != 1 || kws[0] != "Stocks" {
		t.Fatalf("keywords = %v", kws)
	}
	a.Subject = "no colon here"
	if kws, _ := c.Classify(a, ""); len(kws) != 0 {
		t.Fatalf("keywords = %v", kws)
	}
}

func TestClassifierDefaultExtract(t *testing.T) {
	c := new(Classifier)
	c.Accept(SourceRule{Source: "s"}) // Extract unset → native
	a := &alert.Alert{Source: "s", Keywords: []string{"k"}}
	kws, _ := c.Classify(a, "")
	if len(kws) != 1 || kws[0] != "k" {
		t.Fatalf("keywords = %v", kws)
	}
	// The native path returns the alert's own slice (no copy); callers
	// treat it as read-only.
	if &kws[0] != &a.Keywords[0] {
		t.Fatal("Classify copied alert keywords on the native path")
	}
	if got := c.Sources(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("Sources = %v", got)
	}
}

func TestAlertFromEmailWirePayload(t *testing.T) {
	orig := &alert.Alert{
		ID: "x-1", Source: "aladdin", Keywords: []string{"Sensor ON"},
		Subject: "Basement Water Sensor ON", Urgency: alert.UrgencyCritical,
		Created: time.Date(2001, 3, 26, 10, 0, 0, 0, time.UTC),
	}
	payload, err := orig.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	msg := email.Message{From: "gw@home.sim", Subject: "fallback", Body: string(payload)}
	got := AlertFromEmail(msg)
	if got.ID != "x-1" || got.Source != "aladdin" || got.Urgency != alert.UrgencyCritical {
		t.Fatalf("AlertFromEmail = %+v", got)
	}
}

func TestAlertFromEmailLegacy(t *testing.T) {
	sub := time.Date(2001, 3, 26, 10, 0, 0, 0, time.UTC)
	msg := email.Message{
		From: "stocks@yahoo.sim", Subject: "MSFT moved", Body: "plain text",
		SubmittedAt: sub,
	}
	got := AlertFromEmail(msg)
	if got.Source != "yahoo.sim" || got.Subject != "MSFT moved" || !got.Created.Equal(sub) {
		t.Fatalf("AlertFromEmail = %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("legacy alert invalid: %v", err)
	}
}

func TestAggregator(t *testing.T) {
	g := new(Aggregator)
	if got := g.Aggregate([]string{"anything"}); got != DefaultCategory {
		t.Fatalf("Aggregate = %q", got)
	}
	g.Map("Stocks", "Investment")
	g.Map("financial news", "Investment")
	g.Map("Earnings reports", "Investment")
	for _, kws := range [][]string{
		{"Stocks"},
		{"STOCKS"},
		{"Financial News"},
		{"junk", "earnings reports"},
	} {
		if got := g.Aggregate(kws); got != "Investment" {
			t.Fatalf("Aggregate(%v) = %q", kws, got)
		}
	}
	g.SetFallback("Misc")
	if got := g.Aggregate(nil); got != "Misc" {
		t.Fatalf("fallback = %q", got)
	}
	// First mapped keyword wins.
	g.Map("weather", "Weather")
	if got := g.Aggregate([]string{"weather", "stocks"}); got != "Weather" {
		t.Fatalf("Aggregate = %q", got)
	}
}

func TestFilterEnableDisable(t *testing.T) {
	f := new(Filter)
	now := time.Date(2001, 3, 26, 12, 0, 0, 0, time.UTC)
	if !f.Allow("Investment", now) {
		t.Fatal("fresh filter blocks")
	}
	f.SetEnabled("Investment", false)
	if f.Allow("Investment", now) {
		t.Fatal("disabled category allowed")
	}
	if !f.Allow("Other", now) {
		t.Fatal("unrelated category blocked")
	}
	f.SetEnabled("Investment", true)
	if !f.Allow("Investment", now) {
		t.Fatal("re-enabled category blocked")
	}
}

func TestFilterQuietHours(t *testing.T) {
	f := new(Filter)
	day := time.Date(2001, 3, 26, 0, 0, 0, 0, time.UTC)
	// Quiet 22:00–07:00 (wraps midnight).
	f.SetQuietHours("News", 22*time.Hour, 7*time.Hour)
	tests := []struct {
		hour  int
		allow bool
	}{
		{23, false}, {2, false}, {6, false},
		{7, true}, {12, true}, {21, true},
	}
	for _, tt := range tests {
		at := day.Add(time.Duration(tt.hour) * time.Hour)
		if got := f.Allow("News", at); got != tt.allow {
			t.Fatalf("Allow at %02d:00 = %v, want %v", tt.hour, got, tt.allow)
		}
	}
	// Non-wrapping window 09:00–17:00.
	f.SetQuietHours("Work", 9*time.Hour, 17*time.Hour)
	if f.Allow("Work", day.Add(12*time.Hour)) {
		t.Fatal("allowed inside quiet window")
	}
	if !f.Allow("Work", day.Add(8*time.Hour)) || !f.Allow("Work", day.Add(18*time.Hour)) {
		t.Fatal("blocked outside quiet window")
	}
	// Equal offsets clear.
	f.SetQuietHours("Work", time.Hour, time.Hour)
	if !f.Allow("Work", day.Add(12*time.Hour)) {
		t.Fatal("cleared window still blocks")
	}
}

func TestClassifierRulesInventory(t *testing.T) {
	c := new(Classifier)
	c.Accept(SourceRule{Source: "zeta", UnsubscribeHint: "email stop@zeta.sim"})
	c.Accept(SourceRule{Source: "alpha", UnsubscribeHint: "visit alpha.sim/unsubscribe"})
	rules := c.Rules()
	if len(rules) != 2 || rules[0].Source != "alpha" || rules[1].Source != "zeta" {
		t.Fatalf("Rules = %+v", rules)
	}
	if rules[0].UnsubscribeHint != "visit alpha.sim/unsubscribe" {
		t.Fatalf("hint = %q", rules[0].UnsubscribeHint)
	}
	// Updating a rule replaces it.
	c.Accept(SourceRule{Source: "alpha", Extract: ExtractSubject})
	rules = c.Rules()
	if len(rules) != 2 || rules[0].Extract != ExtractSubject {
		t.Fatalf("Rules after update = %+v", rules)
	}
}

// TestClassifierRemoveAbsentPublishesNothing: removing a source that is
// not accepted leaves the published table as it is — no copy, no swap.
func TestClassifierRemoveAbsentPublishesNothing(t *testing.T) {
	var c Classifier
	c.Remove("absent") // on a zero Classifier too
	if c.snapshot() != nil {
		t.Fatal("Remove on an empty classifier published a table")
	}
	c.Accept(SourceRule{Source: "portal"})
	before := c.snapshot()
	c.Remove("absent")
	if reflect.ValueOf(c.snapshot()).UnsafePointer() != reflect.ValueOf(before).UnsafePointer() {
		t.Fatal("Remove of an absent source published a new table")
	}
	if !race.Enabled {
		if n := testing.AllocsPerRun(100, func() { c.Remove("absent") }); n != 0 {
			t.Fatalf("Remove of an absent source allocates %.0f times, want 0", n)
		}
	}
}

// TestStagesPublishWholeSnapshots runs one mutator goroutine against
// readers of all three stages and checks that every read sees a state
// some mutation published whole: nothing a finished mutation wrote is
// missing, no entry an older one removed is back, and the entries no
// mutation touches ride along in every copy. Under -race it also shows
// that no mutator writes a map a reader may hold.
func TestStagesPublishWholeSnapshots(t *testing.T) {
	const iters = 400
	var (
		c    Classifier
		g    Aggregator
		f    Filter
		done atomic.Int64 // iterations the mutator has finished
	)
	noon := time.Date(2001, 3, 26, 12, 0, 0, 0, time.UTC)
	c.Accept(SourceRule{Source: "always", UnsubscribeHint: "h-always"})
	f.SetEnabled("off", false)
	f.SetQuietHours("quiet", 11*time.Hour, 13*time.Hour)
	name := func(prefix string, i int64) string { return prefix + strconv.FormatInt(i, 10) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= iters; i++ {
			c.Accept(SourceRule{Source: name("s-", i), UnsubscribeHint: name("h-", i)})
			g.Map(name("K-", i), name("c-", i))
			f.SetEnabled(name("c-", i), false)
			g.SetFallback(name("f-", i))
			c.Remove(name("s-", i-1))
			c.Remove("never-accepted")
			f.SetEnabled(name("c-", i-1), true)
			done.Store(i)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := done.Load(); ; n = done.Load() {
				if err := checkSnapshots(&c, &g, &f, n, noon); err != nil {
					t.Errorf("after %d mutations: %v", n, err)
					return
				}
				if n == iters {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkSnapshots reads each stage once and reports what no state
// published after n finished mutator iterations can hold.
func checkSnapshots(c *Classifier, g *Aggregator, f *Filter, n int64, noon time.Time) error {
	newest := int64(-1)
	for _, r := range c.Rules() {
		if r.UnsubscribeHint != "h-"+strings.TrimPrefix(r.Source, "s-") || r.Extract != ExtractNative {
			return fmt.Errorf("rule %+v is not the one accepted", r)
		}
		if r.Source == "always" {
			continue
		}
		j, _ := strconv.ParseInt(strings.TrimPrefix(r.Source, "s-"), 10, 64)
		if j < n {
			return fmt.Errorf("source %s is back after its removal", r.Source)
		}
		newest = max(newest, j)
	}
	if n > 0 && newest < n {
		return fmt.Errorf("no source from mutation %d on is accepted", n)
	}
	if _, ok := c.Classify(&alert.Alert{Source: "always"}, ""); !ok {
		return fmt.Errorf("the untouched source %q was lost", "always")
	}
	if n > 0 {
		if cat := g.Aggregate([]string{"k-" + strconv.FormatInt(n, 10)}); cat != "c-"+strconv.FormatInt(n, 10) {
			return fmt.Errorf("keyword k-%d maps to %q, want c-%d", n, cat, n)
		}
		fb := g.Aggregate([]string{"unmapped"})
		if m, err := strconv.ParseInt(strings.TrimPrefix(fb, "f-"), 10, 64); err != nil || m < n {
			return fmt.Errorf("fallback %q is older than mutation %d", fb, n)
		}
		if !f.Allow("c-"+strconv.FormatInt(n-1, 10), noon) {
			return fmt.Errorf("category c-%d is still disabled", n-1)
		}
	}
	if f.Allow("off", noon) || f.Allow("quiet", noon) {
		return fmt.Errorf("the untouched filter entries were lost")
	}
	return nil
}
