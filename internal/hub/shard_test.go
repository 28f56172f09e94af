package hub

import (
	"testing"
	"time"

	"simba/internal/dist"
)

// refuse drives one overload episode on a full shard: every step it
// releases (and re-reserves) perStep slots, advances the synthetic
// clock, and asks for a hint, as a refused submitter would. It returns
// the last hint.
func refuse(s *shard, now *time.Time, steps, perStep int, step time.Duration) time.Duration {
	var hint time.Duration
	for i := 0; i < steps; i++ {
		for k := 0; k < perStep; k++ {
			s.release()
			s.reserveSlot()
		}
		*now = now.Add(step)
		hint = s.retryHint(*now, 2*time.Millisecond)
	}
	return hint
}

// TestRetryHintTracksDrainRate pins RetryAfter to the shard's observed
// drain rate instead of one millisecond per queued alert: a full shard
// of 256 that gives slots back at 3,200/s drains in 80 ms, and the hint
// says so (the old formula said 258–387 ms); behind a gated sink that
// gives nothing back, the hint grows toward its one-second cap instead
// of inviting the sender back at the fast rate. Before the first sample
// the hint is one commit window, so the sender's next refusal takes
// that sample; a shard whose samples all read zero hints the cap.
func TestRetryHintTracksDrainRate(t *testing.T) {
	const depth = 256
	window := 2 * time.Millisecond
	full := func() *shard {
		s := newShard(0, depth, dist.NewRNG(5))
		s.setState(ShardRunning)
		if got := s.reserveN(depth); got != depth {
			t.Fatalf("reserved %d of %d slots", got, depth)
		}
		return s
	}
	within := func(name string, hint, lo, hi time.Duration) {
		t.Helper()
		// The jitter adds up to half the base.
		if hint < lo || hint > hi+hi/2 {
			t.Errorf("%s: hint %v, want within [%v, %v] plus jitter", name, hint, lo, hi)
		}
	}

	s := full()
	now := time.Unix(1000, 0)
	within("before any sample", s.retryHint(now, window), window, window)

	// Fast sink: 32 slots every 10 ms = 3,200/s, a full drain in 80 ms.
	hint := refuse(s, &now, 20, 32, 10*time.Millisecond)
	within("fast sink", hint, window+75*time.Millisecond, window+85*time.Millisecond)

	// A quiet minute is not drain time: the next episode starts a fresh
	// sample and keeps the rate it learnt.
	now = now.Add(time.Minute)
	within("after an idle gap", s.retryHint(now, window), window+75*time.Millisecond, window+85*time.Millisecond)

	// The sink gates: nothing is released, every sample reads zero, and
	// the hint backs off to the cap.
	hint = refuse(s, &now, 40, 0, 10*time.Millisecond)
	within("gated sink", hint, window+maxRetryHint, window+maxRetryHint)
	// ...and stays there however far the rate decays toward zero (the
	// estimate in nanoseconds would overflow a Duration long before).
	for i := 0; i < 400; i++ {
		within("gated sink, rate decayed", refuse(s, &now, 1, 0, 10*time.Millisecond), window+maxRetryHint, window+maxRetryHint)
	}

	// Gated from the start: every sample reads zero, which is a measured
	// rate of nothing, not a missing one, so the hint is the cap.
	g := full()
	hint = refuse(g, &now, 10, 0, 10*time.Millisecond)
	within("gated from the start", hint, window+maxRetryHint, window+maxRetryHint)
}

// TestShardStateTextRoundTrip: every state marshals to its name and
// reads back from it; a name no state has, the retired "quiescing"
// included, is refused.
func TestShardStateTextRoundTrip(t *testing.T) {
	for st := ShardIdle; st <= ShardStopped; st++ {
		text, err := st.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ShardState
		if err := back.UnmarshalText(text); err != nil || back != st {
			t.Fatalf("%q read back as %v, %v; want %v", text, back, err, st)
		}
	}
	for _, name := range []string{"quiescing", "unknown", ""} {
		var st ShardState
		if err := st.UnmarshalText([]byte(name)); err == nil {
			t.Fatalf("UnmarshalText(%q) = %v, want an error", name, st)
		}
	}
}
