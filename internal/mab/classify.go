package mab

import (
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/alert"
	"simba/internal/email"
)

// ExtractFrom says where a source's category keywords live. The paper:
// "the keywords in alerts from Yahoo! and Alerts.com appear as part of
// the email sender name, while the keywords in MSN Mobile alerts and
// desktop assistant alerts reside in the email subject field."
type ExtractFrom int

// Keyword extraction strategies.
const (
	// ExtractNative uses the alert's own Keywords field (SIMBA-aware
	// sources that send structured payloads).
	ExtractNative ExtractFrom = iota + 1
	// ExtractSender tokenizes the email sender's local part on '.' and
	// '-' (e.g. "stocks.earnings@yahoo.sim" → "stocks", "earnings").
	ExtractSender
	// ExtractSubject takes the subject prefix before the first ':'
	// (e.g. "Stocks: MSFT up 3%" → "Stocks").
	ExtractSubject
)

// SourceRule is the user's per-source classification rule.
type SourceRule struct {
	// Source matches alert.Alert.Source (or the email sender's domain
	// for legacy email-only services).
	Source string
	// Extract picks the keyword extraction strategy.
	Extract ExtractFrom
	// UnsubscribeHint records how to stop this service's alerts — the
	// bookkeeping the paper says MyAlertBuddy keeps ("a list of all
	// the subscribed alert services, and the information about how to
	// unsubscribe them").
	UnsubscribeHint string
}

// Classifier implements MyAlertBuddy's alert classification: it keeps
// the user's list of accepted alert sources and how to extract
// category keywords from each. Unaccepted sources are dropped — that
// is the spam boundary MyAlertBuddy provides.
//
// The rule table is copy-on-write: mutators clone the map under a
// mutex and publish the clone whole, so Classify — the per-alert hot
// path — never takes a lock. The atomic.Value holds the map itself (a
// map is pointer-shaped), so publishing it allocates no cell. The zero
// Classifier accepts nothing.
type Classifier struct {
	mu    sync.Mutex   // serializes mutators
	rules atomic.Value // map[string]SourceRule, read-only once stored
}

// snapshot returns the current rule table (nil for a zero Classifier).
// Callers must treat it as read-only.
func (c *Classifier) snapshot() map[string]SourceRule {
	m, _ := c.rules.Load().(map[string]SourceRule)
	return m
}

// withRoom copies m into a new map with room for one more entry: the
// copy a stage mutator edits and publishes whole.
func withRoom[K comparable, V any](m map[K]V) map[K]V {
	next := make(map[K]V, len(m)+1)
	maps.Copy(next, m)
	return next
}

// Accept registers (or updates) a source rule.
func (c *Classifier) Accept(rule SourceRule) {
	if rule.Extract == 0 {
		rule.Extract = ExtractNative
	}
	c.mu.Lock()
	next := withRoom(c.snapshot())
	next[rule.Source] = rule
	c.rules.Store(next)
	c.mu.Unlock()
}

// Remove unregisters a source (the unsubscribe bookkeeping the paper
// mentions). Removing a source that is not accepted publishes nothing.
func (c *Classifier) Remove(source string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snapshot()
	if _, ok := cur[source]; !ok {
		return
	}
	next := maps.Clone(cur)
	delete(next, source)
	c.rules.Store(next)
}

// Sources returns the accepted source names.
func (c *Classifier) Sources() []string {
	rules := c.snapshot()
	out := make([]string, 0, len(rules))
	for s := range rules {
		out = append(out, s)
	}
	return out
}

// Rules returns a copy of every accepted source rule, sorted by source
// name — the user's one-stop inventory of everything they are
// subscribed to and how to leave it.
func (c *Classifier) Rules() []SourceRule {
	rules := c.snapshot()
	out := make([]SourceRule, 0, len(rules))
	for _, r := range rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// Classify extracts category keywords from the alert. emailFrom is the
// sender address when the alert arrived by email (empty otherwise).
// accepted reports whether the alert's source is on the accepted list.
//
// For ExtractNative sources the returned slice aliases a.Keywords
// rather than copying it; callers must treat the result as read-only
// (routing clones the alert before rewriting its keywords).
func (c *Classifier) Classify(a *alert.Alert, emailFrom string) (keywords []string, accepted bool) {
	rule, ok := c.snapshot()[a.Source]
	if !ok {
		return nil, false
	}
	switch rule.Extract {
	case ExtractSender:
		return senderKeywords(emailFrom), true
	case ExtractSubject:
		return subjectKeywords(a.Subject), true
	default:
		return a.Keywords, true
	}
}

// senderKeywords tokenizes the local part of an email address.
func senderKeywords(from string) []string {
	local, _, _ := strings.Cut(from, "@")
	if local == "" {
		return nil
	}
	fields := strings.FieldsFunc(local, func(r rune) bool { return r == '.' || r == '-' || r == '_' })
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// subjectKeywords takes the "Keyword:" prefix of a subject line.
func subjectKeywords(subject string) []string {
	head, _, ok := strings.Cut(subject, ":")
	head = strings.TrimSpace(head)
	if !ok || head == "" {
		return nil
	}
	return []string{head}
}

// AlertFromEmail converts a delivered email into an alert. SIMBA-aware
// senders embed a wire payload in the body; legacy email-only services
// yield a synthesized alert whose source is the sender's domain.
func AlertFromEmail(msg email.Message) *alert.Alert {
	if alert.IsWirePayload(msg.Body) {
		var a alert.Alert
		if err := a.UnmarshalText([]byte(msg.Body)); err == nil {
			return &a
		}
	}
	_, domain, _ := strings.Cut(msg.From, "@")
	created := msg.SubmittedAt
	if created.IsZero() {
		created = msg.DeliveredAt
	}
	return &alert.Alert{
		ID:      alert.NextID("em"),
		Source:  domain,
		Subject: msg.Subject,
		Body:    msg.Body,
		Urgency: alert.UrgencyNormal,
		Created: created,
	}
}

// DefaultCategory is where keywords with no aggregation mapping land.
const DefaultCategory = "Uncategorized"

// Aggregator implements alert aggregation: the user's mapping from
// native keywords to personal alert categories ("Stocks", "Financial
// news" and "Earnings reports" → "Investment"). Like Classifier, the
// state is copy-on-write: Aggregate reads an immutable snapshot and
// never takes a lock. The zero Aggregator falls back to DefaultCategory.
type Aggregator struct {
	mu    sync.Mutex // serializes mutators
	state atomic.Pointer[aggState]
}

type aggState struct {
	mapping  map[string]string // lowercased keyword → category
	fallback string
}

// defaultAggState is what an Aggregator no mutator has touched reads:
// no mapping, DefaultCategory fallback. Shared and never written —
// Map copies it.
var defaultAggState = aggState{fallback: DefaultCategory}

// snapshot returns the current state; never nil.
func (g *Aggregator) snapshot() *aggState {
	if s := g.state.Load(); s != nil {
		return s
	}
	return &defaultAggState
}

// SetFallback overrides the category for unmapped keywords. The new
// snapshot shares the current mapping, which is never written once
// published.
func (g *Aggregator) SetFallback(category string) {
	g.mu.Lock()
	g.state.Store(&aggState{mapping: g.snapshot().mapping, fallback: category})
	g.mu.Unlock()
}

// Map routes a native keyword (case-insensitive) to a personal
// category.
func (g *Aggregator) Map(keyword, category string) {
	g.mu.Lock()
	cur := g.snapshot()
	next := &aggState{mapping: withRoom(cur.mapping), fallback: cur.fallback}
	next.mapping[strings.ToLower(keyword)] = category
	g.state.Store(next)
	g.mu.Unlock()
}

// Aggregate assigns the alert's personal category: the first keyword
// with a mapping wins; otherwise the fallback category. Matching is
// case-insensitive (the mapping is lowercased at Map time) without a
// per-lookup strings.ToLower allocation: already-lowercase keywords hit
// the map directly, and mixed-case ASCII keywords are folded into a
// stack buffer whose map lookup the compiler keeps allocation-free.
func (g *Aggregator) Aggregate(keywords []string) string {
	s := g.snapshot()
	if len(s.mapping) == 0 {
		return s.fallback
	}
	var buf [64]byte
	for _, k := range keywords {
		if cat, ok := s.mapping[k]; ok {
			return cat // already-lowercase fast path
		}
		folded, kind := foldASCII(buf[:0], k)
		switch kind {
		case foldIdentical:
			// Lowercase ASCII already missed above; next keyword.
		case foldChanged:
			if cat, ok := s.mapping[string(folded)]; ok {
				return cat
			}
		default: // non-ASCII or oversized: rare full-Unicode path
			if cat, ok := s.mapping[strings.ToLower(k)]; ok {
				return cat
			}
		}
	}
	return s.fallback
}

// foldASCII outcomes.
const (
	foldIdentical = iota // s is lowercase ASCII: folding is a no-op
	foldChanged          // folded holds the lowercased bytes
	foldUnable           // non-ASCII or longer than the buffer
)

// foldASCII lower-cases an ASCII string into buf without allocating.
func foldASCII(buf []byte, s string) ([]byte, int) {
	if len(s) > cap(buf) {
		return nil, foldUnable
	}
	changed := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return nil, foldUnable
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
			changed = true
		}
		buf = append(buf, c)
	}
	if !changed {
		return nil, foldIdentical
	}
	return buf, foldChanged
}

// Filter implements alert filtering: per-category enable/disable and
// delivery time constraints ("disable these alerts during certain
// hours to avoid distractions"). State is copy-on-write like the
// other pipeline stages: Allow reads an immutable snapshot lock-free.
// The zero Filter allows everything.
type Filter struct {
	mu    sync.Mutex // serializes mutators
	state atomic.Pointer[filterState]
}

type filterState struct {
	disabled map[string]bool
	quiet    map[string]quietWindow
}

type quietWindow struct {
	start, end time.Duration // offsets since midnight; start==end means none
}

// snapshot returns the current state (possibly nil for a zero Filter,
// which allows everything).
func (f *Filter) snapshot() *filterState {
	return f.state.Load()
}

// SetEnabled enables or disables a category.
func (f *Filter) SetEnabled(category string, enabled bool) {
	f.mu.Lock()
	next := new(filterState) // shares the map it does not edit
	if cur := f.snapshot(); cur != nil {
		*next = *cur
	}
	next.disabled = withRoom(next.disabled)
	if enabled {
		delete(next.disabled, category)
	} else {
		next.disabled[category] = true
	}
	f.state.Store(next)
	f.mu.Unlock()
}

// SetQuietHours suppresses the category between start and end offsets
// from midnight (local to the alert timestamp). A window that wraps
// midnight (start > end) is supported. Equal offsets clear the window.
func (f *Filter) SetQuietHours(category string, start, end time.Duration) {
	f.mu.Lock()
	next := new(filterState) // shares the map it does not edit
	if cur := f.snapshot(); cur != nil {
		*next = *cur
	}
	next.quiet = withRoom(next.quiet)
	if start == end {
		delete(next.quiet, category)
	} else {
		next.quiet[category] = quietWindow{start: start, end: end}
	}
	f.state.Store(next)
	f.mu.Unlock()
}

// Allow reports whether an alert of the category should be routed at
// the given time.
func (f *Filter) Allow(category string, now time.Time) bool {
	s := f.snapshot()
	if s == nil {
		return true
	}
	if s.disabled[category] {
		return false
	}
	w, ok := s.quiet[category]
	if !ok {
		return true
	}
	offset := sinceMidnight(now)
	if w.start < w.end {
		return offset < w.start || offset >= w.end
	}
	// Wraps midnight: quiet when offset >= start OR offset < end.
	return offset < w.start && offset >= w.end
}

// sinceMidnight returns now's wall-clock offset from midnight, computed
// arithmetically from the clock reading instead of rebuilding midnight
// with time.Date on every alert. Quiet windows therefore track the
// local clock face across DST transitions: a 01:00–04:00 window on a
// spring-forward day ends when the wall clock reads 04:00, not after
// four elapsed hours (which time.Date-based subtraction would give).
func sinceMidnight(now time.Time) time.Duration {
	hour, min, sec := now.Clock()
	return time.Duration(hour)*time.Hour +
		time.Duration(min)*time.Minute +
		time.Duration(sec)*time.Second +
		time.Duration(now.Nanosecond())
}
