package mab

import (
	"time"

	"simba/internal/alert"
)

// Verdict is a Pipeline's decision for one alert.
type Verdict int

// Pipeline verdicts.
const (
	// VerdictRoute means the alert passed every stage and should be
	// delivered to the category's subscribers.
	VerdictRoute Verdict = iota + 1
	// VerdictReject means the alert's source is not on the accepted
	// list (the spam boundary).
	VerdictReject
	// VerdictFilter means the category is disabled or inside quiet
	// hours.
	VerdictFilter
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictRoute:
		return "route"
	case VerdictReject:
		return "reject"
	case VerdictFilter:
		return "filter"
	default:
		return "verdict(?)"
	}
}

// Pipeline bundles MyAlertBuddy's per-user alert-processing stages —
// classification, aggregation, filtering — behind one Evaluate call.
// The full Service drives a Pipeline inside each incarnation, and the
// hosted hub (internal/hub) runs one Pipeline per tenant, so both
// incarnations of the buddy share the exact same routing semantics.
type Pipeline struct {
	Classifier *Classifier
	Aggregator *Aggregator
	Filter     *Filter
}

// NewPipeline returns a pipeline with empty stages: it accepts no
// sources until the user registers classification rules. The pipeline
// and its three zero-valued stages are one allocation (a hub tenant
// holds the same four inline in its Buddy).
func NewPipeline() *Pipeline {
	s := new(struct {
		p Pipeline
		c Classifier
		g Aggregator
		f Filter
	})
	s.p = Pipeline{Classifier: &s.c, Aggregator: &s.g, Filter: &s.f}
	return &s.p
}

// Evaluate runs classify → aggregate → filter for one alert at the
// given (virtual) time. category is meaningful only when the verdict is
// VerdictRoute.
func (p *Pipeline) Evaluate(a *alert.Alert, now time.Time) (category string, v Verdict) {
	keywords, accepted := p.Classifier.Classify(a, a.EmailFrom)
	if !accepted {
		return "", VerdictReject
	}
	category = p.Aggregator.Aggregate(keywords)
	if !p.Filter.Allow(category, now) {
		return category, VerdictFilter
	}
	return category, VerdictRoute
}
