package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/faults"
	"simba/internal/mab"
	"simba/internal/plog"
)

// recordingSink is the substrate the crash rows and the outbox tests
// deliver through. It outlives hub incarnations and keeps what the users
// saw. A gate parks every Send until released, signalling each arrival;
// a failing switch refuses every Send; and every delivered alert is
// checked for the marks the pool scribbles on a recycled envelope.
type recordingSink struct {
	arrived chan struct{} // one signal per Send; room for more Sends than any row parks

	mu      sync.Mutex
	hold    chan struct{} // non-nil: Sends park until release
	epoch   int           // bumped by reset: a parked Send of a dead incarnation delivers nothing
	busy    int           // Sends entered and not returned
	parked  int           // of those, waiting at the current gate
	failing bool
	seen    recorded
	poison  []string // keys delivered with poison marks
}

// recorded is what the users saw: deliveries per user+keySep+dedupKey,
// each user's keys in first-delivery order, and the last copy of each
// alert delivered.
type recorded struct {
	counts map[string]int
	firsts map[string][]string
	last   map[string]alert.Alert
	total  int
}

func (r recorded) clone() recorded {
	c := recorded{counts: make(map[string]int), firsts: make(map[string][]string), last: make(map[string]alert.Alert), total: r.total}
	for k, n := range r.counts {
		c.counts[k], c.last[k] = n, r.last[k]
	}
	for u, keys := range r.firsts {
		c.firsts[u] = slices.Clone(keys)
	}
	return c
}

var errSubstrateDown = errors.New("substrate down")

func newRecordingSink() *recordingSink {
	s := &recordingSink{arrived: make(chan struct{}, 1024)}
	s.reset(recorded{})
	return s
}

// channels is a registry whose flat sink and email channels are s.
func (s *recordingSink) channels() *core.Channels {
	return core.NewChannels().
		Register(addr.TypeSink, core.ChannelFunc(s.Send)).
		Register(addr.TypeEmail, core.ChannelFunc(s.Send))
}

func (s *recordingSink) Send(req core.Send) (core.SendResult, error) {
	a := req.Alert
	poisoned := a.Created.Year() < 1900 || slices.Contains(a.Keywords, poisonSentinel)
	for _, f := range []string{a.ID, a.Source, a.Subject, a.Body} {
		poisoned = poisoned || strings.Contains(f, poisonSentinel)
	}
	s.mu.Lock()
	s.busy++
	hold, epoch := s.hold, s.epoch
	if hold != nil {
		s.parked++
	}
	s.mu.Unlock()
	select {
	case s.arrived <- struct{}{}:
	default:
	}
	if hold != nil {
		<-hold
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy--
	if s.failing || epoch != s.epoch {
		return core.SendResult{}, errSubstrateDown
	}
	k := req.User + keySep + a.DedupKey()
	if poisoned {
		s.poison = append(s.poison, k)
	}
	if s.seen.counts[k] == 0 {
		s.seen.firsts[req.User] = append(s.seen.firsts[req.User], k)
	}
	s.seen.counts[k]++
	s.seen.total++
	s.seen.last[k] = *a.Clone()
	return core.SendResult{Confirmed: true}, nil
}

func (s *recordingSink) count(user, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen.counts[user+keySep+key]
}

func (s *recordingSink) setFailing(on bool) {
	s.mu.Lock()
	s.failing = on
	s.mu.Unlock()
}

func (s *recordingSink) snapshot() recorded {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen.clone()
}

// reset rewinds the sink to r for a new incarnation, open and healthy. A
// Send still parked from a dead incarnation is released and delivers
// nothing: the process that made it is gone.
func (s *recordingSink) reset(r recorded) {
	s.release()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.failing = false
	s.seen = r.clone()
}

// park makes every later Send wait for release; arrivals signalled
// before it are discarded.
func (s *recordingSink) park() {
	for len(s.arrived) > 0 {
		<-s.arrived
	}
	s.mu.Lock()
	s.hold = make(chan struct{})
	s.mu.Unlock()
}

func (s *recordingSink) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hold != nil {
		close(s.hold)
		s.hold, s.parked = nil, 0
	}
}

// waitArrivals blocks until n Sends have entered the sink.
func (s *recordingSink) waitArrivals(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-s.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d deliveries reached the sink", i, n)
		}
	}
}

// waitTotal blocks until n deliveries have completed.
func (s *recordingSink) waitTotal(t *testing.T, n int) {
	t.Helper()
	waitCond(t, fmt.Sprintf("%d deliveries", n), func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.seen.total >= n
	})
}

// quiesce waits until every Send not parked at the gate has returned: a
// killed hub does not wait for the deliveries it abandons.
func (s *recordingSink) quiesce(t *testing.T) {
	t.Helper()
	waitCond(t, "the sink to quiesce", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.busy == s.parked
	})
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// segmentFrames reads the journal's highest-numbered segment and walks
// it by its length prefixes, returning the end offset of every complete
// frame; the preallocated zero tail parses as a too-short frame and
// stops the walk, as it stops recovery.
func segmentFrames(t *testing.T, walPath string) (path string, data []byte, ends []int) {
	t.Helper()
	segs, err := filepath.Glob(walPath + ".*.seg")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments for %s (%v)", walPath, err)
	}
	path = slices.Max(segs) // zero-padded sequence numbers sort lexically
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	const magicLen, minLen = 8, 5
	for off := magicLen; off+4 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < minLen || off+4+n > len(data) {
			break
		}
		off += 4 + n
		ends = append(ends, off)
	}
	return path, data, ends
}

// How a row's workload reaches the hub.
type crashVia int

const (
	viaSubmit     crashVia = iota // Submit, one alert at a time, retrying overloads
	viaBatch                      // one SubmitBatch per burst
	viaAsync                      // one SubmitBatchAsync per burst, then its callback's results
	viaConcurrent                 // four submitters, one SubmitBatch per user each
)

// When the harness arms a row's faultPoint.
type crashArm int

const (
	armNever     crashArm = iota // no fault: the row's step ends incarnation 1
	armBefore                    // before the burst
	armAtHeads                   // once each user's first alert is parked in the sink
	armMidStream                 // after each user's first half of the burst
)

// Which acked keys a row lets be delivered twice.
type crashDups int

const (
	dupNone    crashDups = iota
	dupHeads             // each user's first alert of the burst
	dupPerUser           // any, at most one per user
	dupHeld              // the round a crash image caught with its DONEs held
)

// crashRow is one crash scenario: a workload, a fault and when it fires,
// what happens to the journal directory between incarnations, and which
// duplicates that crash may leave.
type crashRow struct {
	name     string
	cfg      func(*Config) // deltas from one shard over the recording sink
	host     func(testing.TB, *Hub, string) *Buddy
	mkAlert  func(user string, i int) *alert.Alert
	users    int
	alerts   int // per user, in the burst
	settled  int // per user, delivered and checkpointed before the burst
	via      crashVia
	point    faultPoint
	arm      crashArm
	hold     bool                                 // the sink parks incarnation 1's deliveries (armAtHeads releases them)
	down     bool                                 // the sink refuses every delivery of incarnation 1
	step     func(*testing.T, *crashRun) []string // ends incarnation 1; returns the WAL directories to reopen
	orphan   bool                                 // the reopened hub hosts no tenant
	resubmit bool                                 // the burst is submitted again after the reopen
	dups     crashDups
	replayed [2]int // bounds on the reopened hub's replayed counter
	extra    func(*testing.T, *crashRun)
}

// crashRun is one row's state across its incarnations.
type crashRun struct {
	row    *crashRow
	sink   *recordingSink
	cfg    Config
	dir    string // incarnation 1's
	h1, h2 *Hub
	stats  Stats // h2's as reopened, before anything is resubmitted
	burst  []Submission
	armed  bool

	mu            sync.Mutex
	order         map[string][]string     // user → acked keys, accept order
	acked         map[string]*alert.Alert // key → the alert submitted
	heads         map[string]bool
	late          []string        // keys acked after a mid-stream arm
	held          map[string]bool // dupHeld's round
	undeliverable int64           // incarnation 1's
}

func exactly(n int) [2]int { return [2]int{n, n} }

func shards(n int) func(*Config) { return func(c *Config) { c.Shards = n } }

// fastRetries is the outbox rows' attempt budget: two quick in-memory
// attempts, then outbox rounds every 5–20 ms.
func fastRetries(c *Config) {
	c.deliveryMaxAttempts, c.deliveryBackoff, c.deliveryBackoffCap = 2, time.Millisecond, 2*time.Millisecond
	c.OutboxBackoff, c.outboxBackoffCap = 5*time.Millisecond, 20*time.Millisecond
}

// hostPortal hosts user accepting the "portal" source and mapping
// "stocks" to a personal category.
func hostPortal(t testing.TB, h *Hub, user string) *Buddy {
	t.Helper()
	b, err := h.AddUser(user)
	if err != nil {
		t.Fatal(err)
	}
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	b.Pipeline().Aggregator.Map("stocks", "Investment")
	return b
}

// hostGuaranteed is hostPortal at the guaranteed tier.
func hostGuaranteed(t testing.TB, h *Hub, user string) *Buddy {
	b := hostPortal(t, h, user)
	if err := b.SetTier(core.TierGuaranteed); err != nil {
		t.Fatal(err)
	}
	return b
}

// pipeAlert is alert i of user with what only its journal key carries
// made hard to split back out: a '|' inside Source and ID, and a
// pre-1970 Created.
func pipeAlert(user string, i int) *alert.Alert {
	return &alert.Alert{ID: fmt.Sprintf("a|%s|%d", user, i), Source: "por|tal", Keywords: []string{"stocks", "a,b"},
		Subject: "l1\nl2", Body: fmt.Sprintf("body %d", i), EmailFrom: "desk@portal.sim", Urgency: alert.UrgencyHigh,
		Created: time.Date(1969, 7, 20, 20, 17, 40, i, time.UTC)}
}

// hostPipes is hostPortal at tier, accepting pipeAlert's source.
func hostPipes(tier core.Tier) func(testing.TB, *Hub, string) *Buddy {
	return func(t testing.TB, h *Hub, user string) *Buddy {
		b := hostPortal(t, h, user)
		b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "por|tal", Extract: mab.ExtractNative})
		if err := b.SetTier(tier); err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// deliveredAsSubmitted: every acked alert reached its user equal field
// for field to the one submitted, but for Keywords, which routing
// replaces with the category.
func deliveredAsSubmitted(t *testing.T, r *crashRun) {
	seen := r.sink.snapshot()
	for k, a := range r.acked {
		want := *a
		want.Keywords = []string{"Investment"}
		if got := seen.last[k]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s delivered as %+v, submitted %+v", k, got, *a)
		}
	}
}

// TestHubCrash runs the paper's contract — log before ack, route, then
// mark processed, a replayed duplicate detectable by its timestamp —
// through every crash row, and checks each the same way: every acked key
// delivered once, or twice inside the row's window, each user's first
// deliveries in accept order, the replayed and duplicates counters
// right, nothing unprocessed in the journal after Drain, and the outbox
// ledger after every incarnation. Pool poisoning is on throughout, so a
// recycled envelope that reaches a channel fails the row.
func TestHubCrash(t *testing.T) {
	poolPoison.Store(true)
	defer poolPoison.Store(false)
	for i := range crashRows {
		row := &crashRows[i]
		t.Run(row.name, func(t *testing.T) { runCrashRow(t, row) })
	}
}

var crashRows = []crashRow{
	{
		// The burst is durable and acked, none of it enqueued; replay
		// covers it exactly once, and a resubmission dedups.
		name: "BetweenBatchFsyncAndEnqueue", cfg: shards(4), users: 8, alerts: 6, via: viaBatch,
		point: faultAfterBatchFsync, arm: armBefore, resubmit: true, replayed: exactly(48),
	},
	{
		// A resolved ticket means durable, not delivered.
		name: "AsyncTicketBeforeEnqueue", cfg: shards(4), users: 8, alerts: 6, via: viaAsync,
		point: faultAfterBatchFsync, arm: armBefore, resubmit: true, replayed: exactly(48),
	},
	{
		// The IM block timed out and email confirmed, then the crash:
		// replay runs the mode again, once; a resubmission dedups.
		name: "MidModeFallback", users: 1, alerts: 1, via: viaSubmit,
		cfg: func(c *Config) {
			c.Channels.Register(addr.TypeIM, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
				return core.SendResult{Seq: 1}, nil // never acked
			}))
		},
		host: func(t testing.TB, h *Hub, user string) *Buddy {
			b := hostPortal(t, h, user)
			b.SetProfile(modeProfile(t, user, 50*time.Millisecond))
			if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
				t.Fatal(err)
			}
			return b
		},
		point: faultBeforeMark, arm: armBefore, resubmit: true, dups: dupHeads, replayed: exactly(1),
	},
	{
		// Each chain head delivered, none marked: everything replays,
		// and the heads are the timestamp-detectable duplicates.
		name: "BetweenRoutingAndMark", users: 4, alerts: 3, via: viaSubmit,
		point: faultBeforeMark, arm: armAtHeads, dups: dupHeads, replayed: exactly(12),
	},
	{
		// The window at its widest: a round delivered, its DONEs staged
		// and not yet durable when the image is taken.
		name: "InsideDoneHold", users: 4, alerts: 1, via: viaBatch,
		cfg:  func(c *Config) { c.Shards, c.CommitWindow = 2, 2*time.Millisecond },
		step: holdImage, dups: dupHeld, replayed: exactly(4),
		extra: func(t *testing.T, r *crashRun) {
			seen := r.sink.snapshot()
			for k := range r.held {
				if got, want := seen.last[k].Created, r.acked[k].Created; !got.Equal(want) {
					t.Errorf("%s redelivered stamped %v, submitted %v", k, got, want)
				}
			}
		},
	},
	{
		// The burst spans several segments when the kill lands.
		name: "AcrossWALRotation", users: 4, alerts: 5, via: viaSubmit,
		cfg:   func(c *Config) { c.walSegmentBytes, c.walCheckpointEvery = 256, -1 },
		point: faultBeforeMark, arm: armAtHeads, dups: dupHeads, replayed: exactly(20),
		extra: func(t *testing.T, r *crashRun) {
			if n := r.stats.WAL.SegmentsReplayed; n < 3 {
				t.Errorf("recovery replayed %d segments, want the multi-segment tail", n)
			}
		},
	},
	{
		// A torn generation-2 checkpoint beside a durable generation 1:
		// recovery falls back to 1 and replays the segment tail.
		name: "DuringWALCheckpoint", users: 2, settled: 4, alerts: 2, via: viaSubmit,
		cfg:   func(c *Config) { c.walSegmentBytes, c.walCheckpointEvery = 256, -1 },
		point: faultBeforeMark, arm: armAtHeads, step: tornCheckpoint, dups: dupHeads, replayed: exactly(4),
		extra: func(t *testing.T, r *crashRun) {
			if w := r.stats.WAL; w.CheckpointGen != 1 || w.CorruptRecords == 0 {
				t.Errorf("recovered at checkpoint generation %d with %d corrupt records; want the fallback to 1, the torn one counted",
					w.CheckpointGen, w.CorruptRecords)
			}
		},
	},
	{
		// The final burst's write ends mid-frame: the committed burst
		// replays whole, nothing of the torn one, and no corruption is
		// counted; resubmitting both re-admits exactly the torn burst.
		name: "TearsFinalBurst", cfg: shards(4), users: 8, alerts: 4, via: viaBatch,
		point: faultAfterBatchFsync, arm: armMidStream, hold: true, step: tearLastFrame,
		resubmit: true, replayed: exactly(16),
		extra: func(t *testing.T, r *crashRun) {
			if w := r.stats.WAL; w.CorruptRecords != 0 || w.Total != 16 {
				t.Errorf("recovered %d records with %d corrupt; want the committed 16 and a clean torn tail", w.Total, w.CorruptRecords)
			}
		},
	},
	{
		// Armed mid-stream: the crash lands wherever the deliveries are.
		name: "MidStreamDelivery", cfg: shards(2), users: 12, alerts: 6, via: viaSubmit,
		point: faultBeforeMark, arm: armMidStream, dups: dupPerUser, replayed: [2]int{1, 72},
	},
	{
		// Concurrent batched submitters race the crash while envelopes
		// recycle; the resubmission re-acks what the crash NACKed.
		name: "PooledRecycling", cfg: shards(4), users: 16, alerts: 8, via: viaConcurrent,
		point: faultBeforeMark, arm: armMidStream, resubmit: true, dups: dupPerUser, replayed: [2]int{1, 128},
	},
	{
		// The crashed user is not hosted after the restart: its record
		// is tombstoned, not replayed forever.
		name: "TombstonesOrphans", users: 1, alerts: 1, via: viaSubmit,
		point: faultBeforeMark, arm: armAtHeads, orphan: true, replayed: exactly(0),
		extra: func(t *testing.T, r *crashRun) {
			if got := r.h2.Counters().Get("tombstoned"); got != 1 {
				t.Errorf("tombstoned = %d, want 1", got)
			}
		},
	},
	{
		// Replayed, an alert routes as submitted: a comma inside a
		// keyword still selects its category, a multi-line subject
		// arrives whole.
		name: "ReplayRoutesAsSubmitted", users: 1, alerts: 1, via: viaSubmit,
		host: func(t testing.TB, h *Hub, user string) *Buddy {
			b := hostPortal(t, h, user)
			b.Pipeline().Aggregator.Map("a,b", "Special")
			return b
		},
		mkAlert: func(string, int) *alert.Alert {
			return &alert.Alert{ID: "a-1", Source: "portal", Keywords: []string{"a,b", ""}, Subject: "l1\nl2",
				Body: "body", Urgency: alert.UrgencyNormal, Created: time.Unix(985597200, 0)}
		},
		point: faultRoute, arm: armBefore, replayed: exactly(1),
		extra: func(t *testing.T, r *crashRun) {
			for _, a := range r.sink.snapshot().last {
				if a.Keywords[0] != "Special" || a.Subject != "l1\nl2" {
					t.Errorf("replayed alert delivered as %q / %q, want Special / \"l1\\nl2\"", a.Keywords[0], a.Subject)
				}
			}
		},
	},
	{
		// Replayed, an alert is the one submitted, field for field:
		// Source, ID and Created come back from its journal key, a '|'
		// inside the first two and a pre-1970 Created included.
		name: "ReplaysFieldForField", users: 1, alerts: 3, via: viaBatch, host: hostPipes(core.TierBestEffort), mkAlert: pipeAlert,
		point: faultRoute, arm: armBefore, replayed: exactly(3), extra: deliveredAsSubmitted,
	},
	{
		// The same alert from an outbox envelope loaded after a Kill:
		// User and Round come back from the envelope's key too.
		name: "EnvelopeFieldForField", cfg: fastRetries, host: hostPipes(core.TierGuaranteed), mkAlert: pipeAlert,
		users: 1, alerts: 1, via: viaSubmit, down: true,
		step:     afterHandoff(func(_ *testing.T, h *Hub) { h.Kill(); <-h.Stopped() }),
		replayed: exactly(0),
		extra: func(t *testing.T, r *crashRun) {
			if n := r.stats.Outbox.Loaded; n != 1 {
				t.Errorf("the reopened hub loaded %d envelopes, want 1", n)
			}
			deliveredAsSubmitted(t, r)
		},
	},
	{
		// Handed to the outbox against a down substrate, then a clean
		// shutdown: the next incarnation loads the envelope and
		// redelivers it once; nothing replays from the alert's entry.
		name: "GuaranteedOutboxRedelivers", cfg: fastRetries, host: hostGuaranteed, users: 1, alerts: 1, via: viaSubmit,
		down: true, step: afterHandoff(func(t *testing.T, h *Hub) {
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
			if st := h.Stats(); st.Outbox.Pending != 1 || st.Tiers[core.TierGuaranteed].Lost != 0 {
				t.Fatalf("after Drain: outbox %+v, guaranteed lost %d; want 1 pending, none lost", st.Outbox, st.Tiers[core.TierGuaranteed].Lost)
			}
		}),
		replayed: exactly(0),
		extra: func(t *testing.T, r *crashRun) {
			st := r.h2.Stats()
			if g := st.Tiers[core.TierGuaranteed]; g.Delivered != 1 || g.Lost != 0 || r.stats.Outbox.Loaded != 1 {
				t.Errorf("guaranteed delivered %d, lost %d, envelopes loaded %d; want 1, 0, 1", g.Delivered, g.Lost, r.stats.Outbox.Loaded)
			}
			if r.h1.cfg.Journal.Count(faults.KindOutbox) == 0 {
				t.Error("no outbox journal entries recorded")
			}
		},
	},
	{
		// The WAL is cut at every byte of the handoff's batch — the
		// envelope's RECV run, then the DONE retiring the alert.
		name: "HandoffBatchCuts", cfg: fastRetries, host: hostGuaranteed, users: 1, alerts: 1, via: viaSubmit,
		down: true, step: everyHandoffCut, replayed: [2]int{0, 1},
		extra: func(t *testing.T, r *crashRun) {
			if owners := r.h2.Counters().Get("replayed") + r.stats.Outbox.Loaded; owners != 1 {
				t.Errorf("the alert had %d owners at recovery, want 1", owners)
			}
		},
	},
	{
		// The handoff is staged, not durable, when the crash image is
		// taken: the alert replays from its own RECV and is delivered,
		// and no envelope exists.
		name: "HandoffStagedNotDurable", cfg: fastRetries, host: hostGuaranteed, users: 1, alerts: 1, via: viaSubmit,
		down: true, step: stagedHandoffImage, replayed: exactly(1),
		extra: func(t *testing.T, r *crashRun) {
			if n := r.stats.Outbox.Loaded; n != 0 {
				t.Errorf("the crash image loaded %d envelopes, want 0", n)
			}
		},
	},
	{
		// A shard restart's WAL scan leaves the outbox's envelope alone,
		// so it survives a crash after the restart.
		name: "RestartShardKeepsEnvelopes", cfg: fastRetries, host: hostGuaranteed, users: 1, alerts: 1, via: viaSubmit,
		down: true, step: afterHandoff(func(t *testing.T, h *Hub) {
			if err := h.RestartShard(h.shardOf("user-0").id, "test"); err != nil {
				t.Fatal(err)
			}
			if got := h.Counters().Get("replayed") + h.Counters().Get("tombstoned"); got != 0 {
				t.Fatalf("the restart's scan replayed or tombstoned %d records, want 0", got)
			}
			if got := h.WALBacklog(); got != 1 {
				t.Fatalf("WAL backlog = %d after the restart, want 1 (the envelope)", got)
			}
		}),
		replayed: exactly(0),
	},
	{
		// A best-effort alert that exhausts its budget is dropped and
		// counted, and stays dropped across a restart.
		name: "BestEffortDropStaysDropped", cfg: fastRetries, users: 1, alerts: 1, via: viaSubmit,
		down: true, step: drainFirst, replayed: exactly(0),
		extra: func(t *testing.T, r *crashRun) {
			if st := r.h1.Stats(); st.Tiers[core.TierBestEffort].Lost != 1 || st.OutboxHandoffs != 0 || r.stats.Outbox.Loaded != 0 {
				t.Errorf("best-effort lost %d, handed off %d, reloaded %d; want 1, 0, 0",
					st.Tiers[core.TierBestEffort].Lost, st.OutboxHandoffs, r.stats.Outbox.Loaded)
			}
		},
	},
	{
		// Fifty failed rounds, each a ReplaceAsync of two records, are
		// compacted by the WAL's checkpoints like everything else.
		name: "OutboxJournalCompacts", host: hostGuaranteed, users: 1, alerts: 1, via: viaSubmit,
		cfg: func(c *Config) {
			fastRetries(c)
			c.OutboxBackoff, c.outboxBackoffCap = time.Millisecond, 2*time.Millisecond
			c.walCheckpointEvery, c.walSegmentBytes = 8, 1<<10 // a few rounds per segment
		},
		down: true, step: compactThenHeal, replayed: exactly(0),
	},
}

// runCrashRow runs incarnation 1 to its crash, takes the row's step, and
// reopens each directory the step returns.
func runCrashRow(t *testing.T, row *crashRow) {
	r := &crashRun{
		row: row, sink: newRecordingSink(), dir: t.TempDir(),
		order: make(map[string][]string), acked: make(map[string]*alert.Alert), heads: make(map[string]bool),
	}
	r.cfg = Config{Clock: clock.NewReal(), Channels: r.sink.channels(), Shards: 1, queueDepth: 512}
	if row.cfg != nil {
		row.cfg(&r.cfg)
	}
	poisonHits := poolPoisonHits.Load()
	crash := faults.NewFlag(row.name)
	cfg := r.cfg
	if row.arm != armNever {
		cfg.fault = crashAt(row.point, crash)
	}
	r.h1 = r.start(t, cfg, r.dir, true)
	h1 := r.h1
	r.sink.setFailing(row.down)
	if row.settled > 0 {
		r.send(t, h1, r.round(0, row.settled))
		waitCond(t, "the settled alerts' DONEs", func() bool { return h1.WALBacklog() == 0 })
		if err := h1.CheckpointWAL(); err != nil {
			t.Fatal(err)
		}
	}
	r.burst = r.round(row.settled, row.settled+row.alerts)
	for u := 0; u < row.users; u++ {
		r.heads[subKey(r.burst[u])] = true // round-robin: the burst opens with each user's first alert
	}
	arm := func() { r.armed = true; crash.Set(true, time.Now()) }
	if row.hold || row.arm == armAtHeads {
		r.sink.park()
	}
	switch half := row.users * (row.alerts / 2); row.arm {
	case armBefore:
		arm()
		r.send(t, h1, r.burst)
	case armAtHeads:
		r.send(t, h1, r.burst)
		r.sink.waitArrivals(t, row.users)
		arm()
		r.sink.release()
	case armMidStream:
		r.send(t, h1, r.burst[:half])
		arm()
		r.send(t, h1, r.burst[half:])
	default:
		r.send(t, h1, r.burst)
	}
	if r.armed {
		select {
		case <-h1.Stopped():
		case <-time.After(15 * time.Second):
			t.Fatal("hub did not die at the armed fault")
		}
		if n := h1.cfg.Journal.Count(faults.KindFaultInjected); n != 1 {
			t.Errorf("journaled %d injected faults, want 1", n)
		}
		if err := h1.Submit("user-0", portalAlert(999, time.Now())); !errors.Is(err, ErrNotAccepting) {
			t.Errorf("submit to a crashed hub = %v, want ErrNotAccepting", err)
		}
	}
	dirs := []string{r.dir}
	if row.step != nil {
		dirs = row.step(t, r)
	}
	select {
	case <-h1.Stopped():
	default:
		h1.Kill()
		<-h1.Stopped()
	}
	r.sink.quiesce(t)
	checkOutboxLedger(t, h1)
	r.undeliverable = h1.Counters().Get("undeliverable")
	before := r.sink.snapshot()
	for _, dir := range dirs {
		r.sink.reset(before)
		r.reopen(t, dir)
	}
	if n := poolPoisonHits.Load() - poisonHits; n != 0 || len(r.sink.poison) != 0 {
		t.Errorf("recycled envelopes: %d came back scribbled, %v delivered poisoned", n, r.sink.poison)
	}
}

// subKey is the key the sink and the journal know s by.
func subKey(s Submission) string { return s.User + keySep + s.Alert.DedupKey() }

// start builds and starts an incarnation over the WAL in dir.
func (r *crashRun) start(t *testing.T, cfg Config, dir string, host bool) *Hub {
	t.Helper()
	cfg.Journal, cfg.WALPath = &faults.Journal{}, filepath.Join(dir, "hub.wal")
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hostFn := r.row.host
	if hostFn == nil {
		hostFn = hostPortal
	}
	for u := 0; host && u < r.row.users; u++ {
		hostFn(t, h, fmt.Sprintf("user-%d", u))
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	return h
}

// round is alerts [lo, hi) of every user, round-robin over users; the
// alert i of user u is "a-user-u-i".
func (r *crashRun) round(lo, hi int) []Submission {
	var subs []Submission
	for i := lo; i < hi; i++ {
		for u := 0; u < r.row.users; u++ {
			user := fmt.Sprintf("user-%d", u)
			var a *alert.Alert
			if r.row.mkAlert != nil {
				a = r.row.mkAlert(user, i)
			} else {
				a = portalAlert(i, time.Now())
				a.ID = fmt.Sprintf("a-%s-%d", user, i)
			}
			subs = append(subs, Submission{User: user, Alert: a})
		}
	}
	return subs
}

// send submits subs the row's way and records every acknowledged key in
// accept order. Only a submission that can race a crash may be refused:
// a Submit or a concurrent submitter's batch after the fault is armed.
func (r *crashRun) send(t *testing.T, h *Hub, subs []Submission) {
	t.Helper()
	mayRefuse := r.armed && (r.row.via == viaSubmit || r.row.via == viaConcurrent)
	acks := func(subs []Submission, errs []error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, err := range errs {
			switch {
			case err == nil:
				r.ack(subs[i])
			case !mayRefuse:
				t.Errorf("%s refused: %v", subKey(subs[i]), err)
			}
		}
	}
	switch r.row.via {
	case viaSubmit:
		for _, s := range subs {
			err := h.Submit(s.User, s.Alert)
			for over := (*OverloadError)(nil); errors.As(err, &over); err = h.Submit(s.User, s.Alert) {
				time.Sleep(over.RetryAfter)
			}
			acks([]Submission{s}, []error{err})
		}
	case viaBatch:
		acks(subs, h.SubmitBatch(subs))
	case viaAsync:
		acks(subs, <-submitAsync(h, subs))
	case viaConcurrent:
		byUser := make(map[string][]Submission)
		var users []string
		for _, s := range subs {
			if byUser[s.User] == nil {
				users = append(users, s.User)
			}
			byUser[s.User] = append(byUser[s.User], s)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for u := w; u < len(users); u += 4 {
					batch := byUser[users[u]]
					acks(batch, h.SubmitBatch(batch))
				}
			}(w)
		}
		wg.Wait()
	}
}

// ack records s as acknowledged; a key acked before keeps its place.
func (r *crashRun) ack(s Submission) {
	k := subKey(s)
	if r.acked[k] != nil {
		return
	}
	r.acked[k] = s.Alert
	r.order[s.User] = append(r.order[s.User], k)
	if r.armed && r.row.arm == armMidStream {
		r.late = append(r.late, k)
	}
}

// withdraw forgets acks whose senders, as the crash is modelled, never
// got them.
func (r *crashRun) withdraw(keys []string) {
	for _, k := range keys {
		delete(r.acked, k)
	}
	for u, ks := range r.order {
		r.order[u] = slices.DeleteFunc(ks, func(k string) bool { return r.acked[k] == nil })
	}
}

// reopen runs one incarnation over the WAL in dir to its Drain and
// checks the model on everything the users saw.
func (r *crashRun) reopen(t *testing.T, dir string) {
	row := r.row
	delivered := r.sink.snapshot().total
	h := r.start(t, r.cfg, dir, !row.orphan)
	r.h2, r.stats = h, h.Stats()
	wasAcked := 0
	if row.resubmit {
		for _, s := range r.burst {
			if r.acked[subKey(s)] != nil {
				wasAcked++
			}
		}
		r.armed = false
		r.send(t, h, r.burst)
	}
	waitCond(t, "the outbox to empty", func() bool { return h.Outbox().Pending() == 0 })
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	checkOutboxLedger(t, h)
	c := h.Counters()
	replayed, received, dups := c.Get("replayed"), c.Get("received"), c.Get("duplicates")
	if replayed < int64(row.replayed[0]) || replayed > int64(row.replayed[1]) {
		t.Errorf("replayed = %d, want %v", replayed, row.replayed)
	}
	if n, want := h.cfg.Journal.Count(faults.KindReplay), replayed+c.Get("tombstoned")+r.stats.Outbox.Loaded; int64(n) != want {
		t.Errorf("%d replays journaled; %d alerts replayed, tombstoned or loaded as envelopes", n, want)
	}
	if row.resubmit && (dups+received != int64(len(r.burst)) || dups < int64(wasAcked)) {
		t.Errorf("resubmitting %d alerts, %d of them acked before: %d duplicates, %d received", len(r.burst), wasAcked, dups, received)
	}
	seen := r.sink.snapshot()
	if got, want := int64(seen.total-delivered), replayed+received+h.Outbox().Redelivered(); got != want {
		t.Errorf("the reopened hub delivered %d alerts; it replayed, received and redelivered %d", got, want)
	}
	handoffs := r.h1.Counters().Get("outbox-handoffs") + c.Get("outbox-handoffs")
	r.checkModel(t, seen, r.undeliverable+c.Get("undeliverable"), handoffs)

	l, err := plog.Open(filepath.Join(dir, "hub.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Errorf("%d records unprocessed after recovery and Drain", len(un))
	}
	if handoffs == 0 && l.Len() != len(r.acked) { // an envelope is a record of its own
		t.Errorf("the journal logged %d records for %d acked alerts", l.Len(), len(r.acked))
	}
	if row.extra != nil {
		row.extra(t, r)
	}
}

// checkModel holds what the users saw to the contract: every acked key
// delivered once, or twice inside the row's duplicate window; an acked
// key never delivered only as a counted drop; nothing delivered that
// was not acked; and each user's first deliveries in accept order. An
// outbox redelivery is out of band by design — the user's chain moved
// on at the handoff — so a run with handoffs is not held to order.
func (r *crashRun) checkModel(t *testing.T, seen recorded, undeliverable, handoffs int64) {
	for k := range seen.counts {
		if r.acked[k] == nil {
			t.Errorf("%s delivered, never acked", k)
		}
	}
	var undelivered int64
	for user, keys := range r.order {
		twice := 0
		var firsts []string
		for _, k := range keys {
			n := seen.counts[k]
			if n == 0 {
				undelivered++
				continue
			}
			firsts = append(firsts, k)
			want := 1
			switch {
			case r.row.dups == dupHeads && r.heads[k], r.row.dups == dupHeld && r.held[k]:
				want = 2
			case r.row.dups == dupPerUser && n == 2:
				twice++
				continue
			}
			if n != want {
				t.Errorf("%s delivered %d times, want %d", k, n, want)
			}
		}
		if twice > 1 {
			t.Errorf("%s has %d duplicates, want at most one", user, twice)
		}
		if handoffs == 0 && !slices.Equal(seen.firsts[user], firsts) {
			t.Errorf("%s first deliveries %v, accept order %v", user, seen.firsts[user], firsts)
		}
	}
	if undelivered != undeliverable {
		t.Errorf("%d acked alerts never delivered, %d counted undeliverable", undelivered, undeliverable)
	}
}

// drainFirst ends incarnation 1 with a clean Drain.
func drainFirst(t *testing.T, r *crashRun) []string {
	if err := r.h1.Drain(); err != nil {
		t.Fatal(err)
	}
	return []string{r.dir}
}

// afterHandoff waits for incarnation 1's outbox handoff, then ends it
// with then (or lets the harness kill it).
func afterHandoff(then func(*testing.T, *Hub)) func(*testing.T, *crashRun) []string {
	return func(t *testing.T, r *crashRun) []string {
		waitCond(t, "the outbox handoff", func() bool { return r.h1.Counters().Get("outbox-handoffs") == 1 })
		then(t, r.h1)
		return []string{r.dir}
	}
}

// holdImage copies the journal directory while a round's DONEs are held
// (Stats().WAL.UnflushedDones), submitting one more round per miss.
// Earlier rounds' marks are checkpointed first, so the image holds one
// round's held DONEs and no others.
func holdImage(t *testing.T, r *crashRun) []string {
	round := r.burst
	for i := 1; i <= 5; i++ {
		waitCond(t, "the round's DONEs to be staged", func() bool { return r.h1.WALBacklog() == 0 })
		img := t.TempDir()
		if err := os.CopyFS(img, os.DirFS(r.dir)); err != nil {
			t.Fatal(err)
		}
		if r.h1.Stats().WAL.UnflushedDones == int64(len(round)) { // held throughout the copy
			r.held = make(map[string]bool)
			for _, s := range round {
				r.held[subKey(s)] = true
			}
			return []string{img}
		}
		if err := r.h1.CheckpointWAL(); err != nil {
			t.Fatal(err)
		}
		round = r.round(i, i+1)
		r.send(t, r.h1, round)
	}
	t.Fatal("no round's DONEs stayed unflushed across a directory copy: they are buying their own fsyncs")
	return nil
}

// tornCheckpoint leaves the artifacts of a generation-2 checkpoint torn
// mid-write: a half-written tmp file and a truncated checkpoint.
func tornCheckpoint(t *testing.T, r *crashRun) []string {
	wal := filepath.Join(r.dir, "hub.wal")
	for name, data := range map[string]string{".ckpt.tmp": "CKPT 1 2 9", ".ckpt.00000002": "CKPT 6 2 99 1 99 0\n"} {
		if err := os.WriteFile(wal+name, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return []string{r.dir}
}

// tearLastFrame cuts the journal's last frame — the burst acked after
// the arm — five bytes short, as if its write never finished and its
// senders never got their acks.
func tearLastFrame(t *testing.T, r *crashRun) []string {
	seg, _, ends := segmentFrames(t, filepath.Join(r.dir, "hub.wal"))
	if len(ends) != 2 {
		t.Fatalf("journal holds %d frames, want one per burst", len(ends))
	}
	if err := os.Truncate(seg, int64(ends[1]-5)); err != nil {
		t.Fatal(err)
	}
	r.withdraw(r.late)
	return []string{r.dir}
}

// stagedHandoffImage holds the WAL's files from before the handoff —
// the committer cannot write — and copies the journal directory once the
// handoff has returned: the image holds the alert's RECV and nothing of
// the handoff's batch.
func stagedHandoffImage(t *testing.T, r *crashRun) []string {
	release := r.h1.wal.HoldFilesForTest()
	defer release()
	waitCond(t, "the outbox handoff", func() bool { return r.h1.Counters().Get("outbox-handoffs") == 1 })
	img := t.TempDir()
	if err := os.CopyFS(img, os.DirFS(r.dir)); err != nil {
		t.Fatal(err)
	}
	if _, _, ends := segmentFrames(t, filepath.Join(img, "hub.wal")); len(ends) != 1 {
		t.Fatalf("the image holds %d frames, want the alert's RECV alone", len(ends))
	}
	return []string{img}
}

// everyHandoffCut kills incarnation 1 after its handoff and returns one
// image per byte offset from the end of the alert's RECV run to the end
// of the handoff's DONE list (a round staged before the kill rides in the
// same batch, its run before the list).
func everyHandoffCut(t *testing.T, r *crashRun) []string {
	afterHandoff(func(_ *testing.T, h *Hub) { h.Kill(); <-h.Stopped() })(t, r)
	seg, data, ends := segmentFrames(t, filepath.Join(r.dir, "hub.wal"))
	last := 2
	for last < len(ends) && data[ends[last-1]+4] == 'R' {
		last++
	}
	if last >= len(ends) || data[ends[0]+4] != 'R' || data[ends[last-1]+4] != 'D' {
		t.Fatalf("segment frames end at %v; want the alert's run, then the handoff's run and DONE list", ends)
	}
	var dirs []string
	for cut := ends[0]; cut <= ends[last]; cut++ {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, img)
	}
	return dirs
}

// compactThenHeal keeps the substrate down for fifty outbox rounds,
// checks the WAL's checkpoints compacted them, then heals it and drains
// once the envelope is redelivered.
func compactThenHeal(t *testing.T, r *crashRun) []string {
	h := r.h1
	waitCond(t, "fifty outbox rounds", func() bool { return h.Stats().Outbox.Rounds >= 50 })
	waitCond(t, "a WAL checkpoint", func() bool { return h.Stats().WAL.Checkpoints >= 1 })
	// Uncompacted, 50 rounds of ~200-byte records fill ten or more 1 KiB
	// segments; compacted every 8 records, only the newest stay.
	if st := h.Stats(); st.WAL.Segments > 3 {
		t.Fatalf("WAL holds %d segments after %d rounds (%d checkpoints), want <= 3", st.WAL.Segments, st.Outbox.Rounds, st.WAL.Checkpoints)
	}
	r.sink.setFailing(false)
	waitCond(t, "the outbox redelivery", func() bool { return h.Outbox().Redelivered() == 1 })
	return drainFirst(t, r)
}
