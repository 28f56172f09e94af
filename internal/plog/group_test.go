package plog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func openGroupTemp(t *testing.T, opts GroupOptions) *Log {
	t.Helper()
	g, err := OpenGroup(filepath.Join(t.TempDir(), "group.plog"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestGroupLogRoundTrip(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{})
	if err := g.LogReceived("k1", []byte("p1"), t0); err != nil {
		t.Fatal(err)
	}
	if err := g.MarkProcessed("k1", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := g.LogReceived("k2", []byte("p2"), t0); err != nil {
		t.Fatal(err)
	}
	if !g.Has("k1") || !g.IsProcessed("k1") || g.IsProcessed("k2") {
		t.Fatal("in-memory state wrong")
	}
	path := g.Path()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	un := l.Unprocessed()
	if len(un) != 1 || un[0].Key != "k2" || string(un[0].Payload) != "p2" {
		t.Fatalf("recovered unprocessed = %+v", un)
	}
}

// TestLogConcurrentAppend hammers the plain per-append Log from many
// goroutines: every append must survive and the journal must replay
// cleanly.
func TestLogConcurrentAppend(t *testing.T) {
	l := openTemp(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := l.LogReceived(key, []byte("payload"), t0); err != nil {
					t.Error(err)
					return
				}
				if err := l.MarkProcessed(key, t0.Add(time.Second)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", l.Len(), workers*per)
	}
	path := l.Path()
	l.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != workers*per {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), workers*per)
	}
	if un := re.Unprocessed(); len(un) != 0 {
		t.Fatalf("recovered %d unprocessed, want 0", len(un))
	}
}

// TestGroupLogConcurrentAppend does the same through group commit and
// additionally checks that batching actually happened.
func TestGroupLogConcurrentAppend(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: time.Millisecond})
	const workers, per = 16, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := g.LogReceived(key, []byte("payload"), t0); err != nil {
					t.Error(err)
					return
				}
				if err := g.MarkProcessed(key, t0.Add(time.Second)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	appends, syncs := st.Appended, st.Syncs
	if appends != workers*per*2 {
		t.Fatalf("Appended = %d, want %d", appends, workers*per*2)
	}
	if syncs >= appends {
		t.Fatalf("group commit did not batch: %d syncs for %d appends", syncs, appends)
	}
	path := g.Path()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != workers*per {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), workers*per)
	}
	if un := re.Unprocessed(); len(un) != 0 {
		t.Fatalf("recovered %d unprocessed, want 0", len(un))
	}
}

func TestGroupLogDuplicateIsIdempotent(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{})
	if err := g.LogReceived("k", []byte("first"), t0); err != nil {
		t.Fatal(err)
	}
	if err := g.LogReceived("k", []byte("second"), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := g.MarkProcessed("k", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := g.MarkProcessed("k", t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().Appended; got != 2 {
		t.Fatalf("Appended = %d, want 2 (duplicates are no-ops)", got)
	}
}

func TestGroupLogClosedRejectsAppends(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.LogReceived("k", nil, t0); err != ErrClosed {
		t.Fatalf("LogReceived after close = %v, want ErrClosed", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// countFrames counts the records in the whole frames of raw segment
// bytes: RECV entries and DONEs.
func countFrames(data []byte) (recv, done int) {
	frames, _ := walkFrames(data)
	for _, f := range frames {
		recv += f.recvs
		done += f.dones
	}
	return
}

// tornBatchSpec drives the torn-final-batch property: a journal built
// from batched commits, then cut at an arbitrary byte offset as if the
// machine died mid-write of the last batch.
type tornBatchSpec struct {
	Records uint8
	CutBack uint16 // how many bytes to chop off the tail
}

// TestGroupCommitTornFinalBatchProperty is the testing/quick round
// trip: whatever prefix of a batched journal survives a crash, recovery
// must accept it, keep every fully-written line, and preserve arrival
// order.
func TestGroupCommitTornFinalBatchProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(20010326))
	check := func(spec tornBatchSpec) bool {
		n := int(spec.Records%40) + 1
		dir := t.TempDir()
		path := filepath.Join(dir, "torn.plog")
		g, err := OpenGroup(path, GroupOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := fmt.Sprintf("k%03d", i)
				if err := g.LogReceived(key, []byte(strings.Repeat("x", i%17)), t0); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := g.MarkProcessed(key, t0.Add(time.Second)); err != nil {
						t.Error(err)
					}
				}
			}(i)
		}
		wg.Wait()
		if err := g.Close(); err != nil {
			t.Log(err)
			return false
		}
		// A crash tears only the tail of the *active* segment — earlier
		// segments were fully fsynced before rotation retired them.
		segs := segmentsOf(t, path)
		tail := segs[len(segs)-1]
		data, err := os.ReadFile(tail)
		if err != nil {
			t.Log(err)
			return false
		}
		cut := len(data)
		if len(data) > 0 {
			cut -= int(spec.CutBack) % (len(data) + 1)
		}
		torn := data[:cut]
		if err := os.WriteFile(tail, torn, 0o644); err != nil {
			t.Log(err)
			return false
		}
		re, err := Open(path)
		if err != nil {
			t.Logf("recovery rejected torn journal (cut=%d): %v", cut, err)
			return false
		}
		defer re.Close()

		// Expectation: every frame of the earlier segments plus exactly
		// the complete frames of the torn tail's prefix.
		var wantRecv, wantDone int
		for _, seg := range segs[:len(segs)-1] {
			d, err := os.ReadFile(seg)
			if err != nil {
				t.Log(err)
				return false
			}
			r, dn := countFrames(d)
			wantRecv += r
			wantDone += dn
		}
		r, dn := countFrames(torn)
		wantRecv += r
		wantDone += dn
		if re.Len() != wantRecv {
			t.Logf("cut=%d: recovered %d records, want %d", cut, re.Len(), wantRecv)
			return false
		}
		gotDone := re.Len() - len(re.Unprocessed())
		if gotDone != wantDone {
			t.Logf("cut=%d: recovered %d processed, want %d", cut, gotDone, wantDone)
			return false
		}
		// The recovered set must be dominated by what was fully logged:
		// every unprocessed record replays with its original payload.
		for _, rec := range re.Unprocessed() {
			if !strings.HasPrefix(rec.Key, "k") {
				t.Logf("cut=%d: corrupt recovered key %q", cut, rec.Key)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rnd,
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
