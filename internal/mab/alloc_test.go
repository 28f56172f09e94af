package mab

import (
	"fmt"
	"testing"
	"time"

	"simba/internal/alert"
	"simba/internal/race"
)

// TestPipelineEvaluateZeroAllocs pins the per-alert routing decision at
// zero allocations: classify → aggregate → filter runs on every shard
// loop iteration, so a single stray allocation here multiplies by the
// whole ingest volume.
func TestPipelineEvaluateZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	p := NewPipeline()
	p.Classifier.Accept(SourceRule{Source: "portal", Extract: ExtractNative})
	p.Aggregator.Map("stocks", "Investment")
	a := &alert.Alert{
		ID: "a-1", Source: "portal", Keywords: []string{"stocks"},
		Subject: "quote", Body: "MSFT moved", Urgency: alert.UrgencyNormal,
		Created: time.Unix(0, 1),
	}
	now := time.Unix(0, 2)
	if cat, v := p.Evaluate(a, now); v != VerdictRoute || cat != "Investment" {
		t.Fatalf("Evaluate = (%q, %v), want (Investment, route)", cat, v)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p.Evaluate(a, now)
	})
	if allocs != 0 {
		t.Fatalf("Pipeline.Evaluate allocates %.1f objects per alert, want 0", allocs)
	}
}

// TestZeroValueStagesZeroAllocs pins what lets NewPipeline be one
// allocation: a zero Classifier, Aggregator and Filter behave exactly as
// the New* constructors' stages, untouched and after the same
// mutations, and Aggregate on an untouched zero Aggregator allocates
// nothing.
func TestZeroValueStagesZeroAllocs(t *testing.T) {
	noon := time.Date(2001, 3, 26, 12, 0, 0, 0, time.UTC)
	a := &alert.Alert{ID: "a-1", Source: "portal", Keywords: []string{"Stocks"}, Urgency: alert.UrgencyNormal, Created: noon}
	type stages struct {
		c *Classifier
		g *Aggregator
		f *Filter
	}
	observe := func(s stages) string {
		kws, ok := s.c.Classify(a, "")
		return fmt.Sprint(kws, ok, s.c.Sources(), s.c.Rules(), s.g.Aggregate(a.Keywords), s.g.Aggregate(nil),
			s.f.Allow("Investment", noon), s.f.Allow(DefaultCategory, noon))
	}
	zero := stages{&Classifier{}, &Aggregator{}, &Filter{}}
	built := stages{NewClassifier(), NewAggregator(), NewFilter()}
	if z, b := observe(zero), observe(built); z != b {
		t.Fatalf("untouched: zero stages read %s, constructed ones %s", z, b)
	}
	if !race.Enabled {
		if allocs := testing.AllocsPerRun(100, func() { zero.g.Aggregate(a.Keywords) }); allocs != 0 {
			t.Errorf("Aggregate on a zero Aggregator allocates %.1f objects, want 0", allocs)
		}
	}
	for _, s := range []stages{zero, built} {
		s.c.Accept(SourceRule{Source: "portal"})
		s.g.Map("stocks", "Investment")
		s.g.SetFallback("Other")
		s.f.SetEnabled("Other", false)
		s.f.SetQuietHours("Investment", 11*time.Hour, 13*time.Hour)
	}
	if z, b := observe(zero), observe(built); z != b {
		t.Fatalf("configured: zero stages read %s, constructed ones %s", z, b)
	}
}

// BenchmarkPipelineEvaluate times the per-alert routing decision with 1
// and 8 accepted sources (each with its own mapped keyword), for an
// alert whose keyword is already lowercase and for one whose keyword
// Aggregate must fold first.
func BenchmarkPipelineEvaluate(b *testing.B) {
	for _, rules := range []int{1, 8} {
		p := NewPipeline()
		for i := 0; i < rules; i++ {
			p.Classifier.Accept(SourceRule{Source: fmt.Sprintf("portal-%d", i)})
			p.Aggregator.Map(fmt.Sprintf("stocks-%d", i), "Investment")
		}
		last := rules - 1
		for _, kw := range []struct{ name, keyword string }{
			{"lower", fmt.Sprintf("stocks-%d", last)},
			{"mixed", fmt.Sprintf("Stocks-%d", last)},
		} {
			a := &alert.Alert{
				ID: "a-1", Source: fmt.Sprintf("portal-%d", last), Keywords: []string{kw.keyword},
				Urgency: alert.UrgencyNormal, Created: time.Unix(0, 1),
			}
			now := time.Unix(0, 2)
			b.Run(fmt.Sprintf("rules=%d/keyword=%s", rules, kw.name), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, v := p.Evaluate(a, now); v != VerdictRoute {
						b.Fatalf("verdict %v, want route", v)
					}
				}
			})
		}
	}
}
