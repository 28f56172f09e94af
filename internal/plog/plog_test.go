package plog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func openTemp(t *testing.T) *Log {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "alerts.plog"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// segmentsOf returns the on-disk segment paths for base, ascending
// (zero-padded sequence numbers sort lexically).
func segmentsOf(t testing.TB, base string) []string {
	t.Helper()
	matches, err := filepath.Glob(base + ".*.seg")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

// activeSegmentPath returns the highest-numbered (active) segment.
func activeSegmentPath(t testing.TB, base string) string {
	t.Helper()
	segs := segmentsOf(t, base)
	if len(segs) == 0 {
		t.Fatalf("no segments for %s", base)
	}
	return segs[len(segs)-1]
}

var t0 = time.Date(2001, 3, 26, 9, 0, 0, 0, time.UTC)

func TestLogReceivedAndMark(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("", []byte("x"), t0); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := l.LogReceived("k1", []byte("payload-1"), t0); err != nil {
		t.Fatal(err)
	}
	if !l.Has("k1") || l.IsProcessed("k1") {
		t.Fatal("wrong state after LogReceived")
	}
	if got := l.Unprocessed(); len(got) != 1 || got[0].Key != "k1" || string(got[0].Payload) != "payload-1" {
		t.Fatalf("Unprocessed = %+v", got)
	}
	if err := l.MarkProcessed("k1", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !l.IsProcessed("k1") || len(l.Unprocessed()) != 0 {
		t.Fatal("wrong state after MarkProcessed")
	}
	if err := l.MarkProcessed("k1", t0); err != nil {
		t.Fatal("second MarkProcessed should be a no-op")
	}
	if err := l.MarkProcessed("ghost", t0); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("MarkProcessed(ghost) = %v", err)
	}
}

func TestDuplicateLogReceivedIdempotent(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("k", []byte("first"), t0); err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("k", []byte("second"), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len() = %d", l.Len())
	}
	if got := l.Unprocessed(); string(got[0].Payload) != "first" {
		t.Fatalf("duplicate overwrote payload: %q", got[0].Payload)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := l.LogReceived(key, []byte("p"+key), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.MarkProcessed("k0", t0); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkProcessed("k3", t0); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: no orderly shutdown beyond closing the handle.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	un := l2.Unprocessed()
	wantKeys := []string{"k1", "k2", "k4"}
	if len(un) != len(wantKeys) {
		t.Fatalf("Unprocessed after recovery = %+v", un)
	}
	for i, k := range wantKeys {
		if un[i].Key != k {
			t.Fatalf("Unprocessed[%d] = %q, want %q (arrival order)", i, un[i].Key, k)
		}
		if string(un[i].Payload) != "p"+k {
			t.Fatalf("payload mismatch for %q", k)
		}
		if !un[i].ReceivedAt.Equal(t0.Add(time.Duration(k[1]-'0') * time.Second)) {
			t.Fatalf("timestamp mismatch for %q: %v", k, un[i].ReceivedAt)
		}
	}
	// Writing after recovery works.
	if err := l2.LogReceived("k5", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := l2.MarkProcessed("k1", t0); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("good", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append a torn RECV line (crash mid-write) to the active segment.
	f, err := os.OpenFile(activeSegmentPath(t, path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("RECV 123 aGFsZg"); err != nil { // no payload field, no newline
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 1 || !l2.Has("good") {
		t.Fatalf("recovered state wrong: len=%d", l2.Len())
	}
	// And the log remains appendable.
	if err := l2.LogReceived("after-tear", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if !l3.Has("after-tear") {
		t.Fatal("post-tear append lost")
	}
}

// TestOpenRejectsForeignSegment: a segment that does not open with the
// magic header is refused by name — replaying it as empty would let the
// next checkpoint delete it — while what a crash before the first fsync
// can leave of the header (nothing, a strict prefix of the magic, the
// zeros of the preallocation) is a clean empty log.
func TestOpenRejectsForeignSegment(t *testing.T) {
	for _, tc := range []struct {
		name, content string
		reject        bool
	}{
		{"text journal", "RECV 99 cmVhbA== cGF5bG9hZA==\n", true},
		{"short garbage", "xyz", true},
		{"empty", "", false},
		{"magic prefix", segMagic[:3], false},
		{"preallocated zeros", strings.Repeat("\x00", 64), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "alerts.plog")
			seg := path + ".00000001.seg"
			if err := os.WriteFile(seg, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(path)
			if tc.reject {
				if err == nil {
					l.Close()
					t.Fatal("foreign segment opened")
				}
				if !strings.Contains(err.Error(), seg) {
					t.Fatalf("error %q does not name %s", err, seg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if l.Len() != 0 || l.Stats().CorruptRecords != 0 {
				t.Fatalf("torn header replayed as %+v, want a clean empty log", l.Stats())
			}
			if err := l.LogReceived("k", []byte("p"), t0); err != nil {
				t.Fatal(err)
			}
			l.Close()
			re, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if !re.Has("k") {
				t.Fatal("append after re-initialized header lost")
			}
		})
	}
}

// TestOpenRefusesOldFormatWithoutDeleting: a directory written by a
// release with another journal format — its segments open with another
// magic, its checkpoints name another version — is refused by an error
// that names the file and the format found, before recovery has deleted
// a checkpoint it cannot validate, a segment a checkpoint covers, or the
// stale checkpoint temp: the directory is byte-identical afterwards.
func TestOpenRefusesOldFormatWithoutDeleting(t *testing.T) {
	newSeg, _ := appendRun([]byte(segMagic), []Record{{Key: "k", Payload: []byte("p"), ReceivedAt: t0, seq: 1}})
	for _, tc := range []struct {
		name  string
		files map[string]string
		names []string // what the error must mention
	}{
		{"old segment and old checkpoint", map[string]string{
			".00000001.seg":  "SIMBAW1\n\x16\x00\x00\x00Rxxxxxxxx\x01\x00\x00\x00kxxxx",
			".00000002.seg":  "SIMBAW1\n",
			".ckpt.00000001": "CKPT 2 1 1 0 0 0\nEND 0\n",
			".ckpt.tmp":      "CKPT 2 2 1",
		}, []string{".00000001.seg", `"SIMBAW1\n"`}},
		{"old checkpoint beside a current segment", map[string]string{
			".00000002.seg":  string(newSeg),
			".ckpt.00000001": "CKPT 2 1 1 0 0 0\nEND 0\n",
		}, []string{".ckpt.00000001", "CKPT 2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "alerts.plog")
			for suffix, content := range tc.files {
				if err := os.WriteFile(base+suffix, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := Open(base)
			if err == nil {
				l.Close()
				t.Fatal("a directory in another format opened")
			}
			if !errors.Is(err, ErrFormat) {
				t.Errorf("error %q is not ErrFormat", err)
			}
			for _, name := range tc.names {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name %s", err, name)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Errorf("directory holds %d files after the refused Open, want %d", len(entries), len(tc.files))
			}
			for suffix, content := range tc.files {
				if got, err := os.ReadFile(base + suffix); err != nil || string(got) != content {
					t.Errorf("%s after the refused Open: %q, %v; want it untouched", suffix, got, err)
				}
			}
		})
	}
}

// TestWindowZeroFsyncPerAppend pins what Open promises a lone appender
// (the buddy, the outbox): every append is alone in its commit, and it
// is on disk when the call returns.
func TestWindowZeroFsyncPerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 20
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := l.LogReceived(key, []byte("p"), t0); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			continue
		}
		if err := l.MarkProcessed(key, t0); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.Appended != n+n/2 || s.Syncs != s.Appended {
		t.Fatalf("%d records in %d fsyncs, want %d in as many", s.Appended, s.Syncs, n+n/2)
	}
	// The crash view: reopen without closing l.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n || len(re.Unprocessed()) != n/2 {
		t.Fatalf("crash reopen saw %d records, %d unprocessed; want %d, %d", re.Len(), len(re.Unprocessed()), n, n/2)
	}
}

// TestReplaceAtomicInOneBatch: ReplaceAsync stages its two records and
// buys no fsync; a Flush then commits them in one. Tearing the journal at
// every byte offset of that write, reopening finds the old generation,
// the new one, or both still unprocessed — never neither.
func TestReplaceAtomicInOneBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogReceived("gen1", []byte("envelope round 1"), t0); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	start := time.Now()
	if err := l.ReplaceAsync("gen1", "gen2", []byte("envelope round 2"), t0); err != nil {
		t.Fatal(err)
	}
	// Only doneHold may commit a unit nobody waits on; judged only while
	// it cannot have run out.
	if staged := l.Stats(); staged.Syncs != before.Syncs && time.Since(start) < doneHold {
		t.Fatalf("ReplaceAsync bought %d fsyncs, want 0", staged.Syncs-before.Syncs)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Appended != before.Appended+2 || after.Syncs != before.Syncs+1 {
		t.Fatalf("ReplaceAsync and Flush staged %d records in %d fsyncs, want 2 in 1",
			after.Appended-before.Appended, after.Syncs-before.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(activeSegmentPath(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != after.DiskBytes {
		t.Fatalf("segment is %d bytes, want %d", len(data), after.DiskBytes)
	}
	// The commit is RECV(gen2)'s run, then the batch's DONE list naming
	// gen1: a cut anywhere from the boundary between them to the list's
	// last byte leaves both generations visible.
	frames, _ := walkFrames(data)
	if len(frames) != 3 || frames[1].recvs != 1 || frames[2].dones != 1 || int64(frames[0].end) != before.DiskBytes {
		t.Fatalf("journal frames are %+v, want RECV(gen1) | RECV(gen2), DONE(gen1)", frames)
	}
	for cut := before.DiskBytes; cut <= after.DiskBytes; cut++ {
		torn := filepath.Join(t.TempDir(), "alerts.plog")
		if err := os.WriteFile(torn+".00000001.seg", data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(torn)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		var keys []string
		for _, r := range re.Unprocessed() {
			keys = append(keys, r.Key)
		}
		re.Close()
		got := strings.Join(keys, ",")
		if got != "gen1" && got != "gen1,gen2" && got != "gen2" {
			t.Fatalf("cut=%d: unprocessed = %q, lost both generations", cut, got)
		}
		if cut == after.DiskBytes && got != "gen2" {
			t.Fatalf("untorn journal replays %q, want gen2 alone", got)
		}
		if cut >= int64(frames[1].end) && cut < after.DiskBytes && got != "gen1,gen2" {
			t.Fatalf("cut=%d, between the RECV run and the end of the DONE list: unprocessed = %q, want both generations", cut, got)
		}
	}
}

// TestFailStopAfterWriteError: once a commit fails, its error is what
// every later append gets, and nothing more reaches the file.
func TestFailStopAfterWriteError(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("ok", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	l.fmu.Lock()
	l.f.Close() // the next write fails
	lost, err := l.LogReceivedBatchStart([]BatchEntry{{Key: "lost", Payload: []byte("p"), At: t0}})
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, l, lost)
	// Staged while the failing write is in flight: the open batch.
	behind, err := l.LogReceivedBatchStart([]BatchEntry{{Key: "behind", Payload: []byte("p"), At: t0}})
	if err != nil {
		t.Fatal(err)
	}
	l.fmu.Unlock()
	failed := lost.Wait()
	if failed == nil {
		t.Fatal("append to a closed file reported durable")
	}
	if err := behind.Wait(); err != failed {
		t.Fatalf("batch staged behind the failed write = %v, want the same %v", err, failed)
	}
	if err := l.LogReceived("later", []byte("p"), t0); err != failed {
		t.Fatalf("append after failure = %v, want the sticky %v", err, failed)
	}
	if err := l.MarkProcessed("ok", t0); err != failed {
		t.Fatalf("mark after failure = %v, want the sticky %v", err, failed)
	}
	re, err := Open(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if un := re.Unprocessed(); len(un) != 1 || un[0].Key != "ok" {
		t.Fatalf("reopen after failure replays %+v, want only the record that was durable", un)
	}
}

// TestStaleCommit pins that a Commit is a batch number, not a batch: a
// log's two batch structs are used in turn, so batch n's struct is
// reused by batch n+2, and a Commit taken on n must still answer for n
// alone. Committed: n's Wait returns nil at once while n+2 sits
// mid-write in n's struct. FailedBehind: n commits, n+1's write fails
// and n+2 is staged behind it; n still waits to nil, n+1 and n+2 to the
// error — exactly the batches from the first failed one on.
func TestStaleCommit(t *testing.T) {
	stage := func(t *testing.T, l *Log, key string) Commit {
		t.Helper()
		c, err := l.LogReceivedBatchStart([]BatchEntry{{Key: key, Payload: []byte("p"), At: t0}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	consecutive := func(t *testing.T, cs ...Commit) {
		t.Helper()
		for i := 1; i < len(cs); i++ {
			if cs[i].n != cs[0].n+uint64(i) {
				t.Fatalf("commit %d is batch %d, want %d", i, cs[i].n, cs[0].n+uint64(i))
			}
		}
	}
	t.Run("Committed", func(t *testing.T) {
		l := openTemp(t)
		n := stage(t, l, "n")
		waitInFlight(t, l, n)
		n1 := stage(t, l, "n+1")
		waitInFlight(t, l, n1)
		l.fmu.Lock() // n+1's write is over: n+2 stays mid-write
		n2 := stage(t, l, "n+2")
		waitInFlight(t, l, n2)
		consecutive(t, n, n1, n2)
		got := make(chan error, 1)
		go func() { got <- n.Wait() }()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("batch n = %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("batch n waits on batch n+2, which reuses its struct")
		}
		l.fmu.Unlock()
		for _, c := range []Commit{n2, n1, n} {
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("FailedBehind", func(t *testing.T) {
		l := openTemp(t)
		n := stage(t, l, "n")
		waitInFlight(t, l, n)
		l.fmu.Lock() // n's write is over
		l.f.Close()  // the next write fails
		n1 := stage(t, l, "n+1")
		waitInFlight(t, l, n1)
		n2 := stage(t, l, "n+2") // open behind the failing write, in n's struct
		consecutive(t, n, n1, n2)
		l.fmu.Unlock()
		failed := n1.Wait()
		if failed == nil {
			t.Fatal("append to a closed file reported durable")
		}
		if err := n2.Wait(); err != failed {
			t.Fatalf("batch n+2 = %v, want the same %v", err, failed)
		}
		if err := n.Wait(); err != nil {
			t.Fatalf("batch n = %v after batch n+2 failed in its struct, want nil", err)
		}
	})
}

func TestClosedLogRejectsWrites(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("k", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := l.LogReceived("k2", []byte("p"), t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("LogReceived after close = %v", err)
	}
	if err := l.MarkProcessed("k", t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("MarkProcessed after close = %v", err)
	}
}

func TestUnprocessedReturnsCopies(t *testing.T) {
	l := openTemp(t)
	if err := l.LogReceived("k", []byte("abc"), t0); err != nil {
		t.Fatal(err)
	}
	got := l.Unprocessed()
	got[0].Payload[0] = 'X'
	if string(l.Unprocessed()[0].Payload) != "abc" {
		t.Fatal("Unprocessed aliases internal payload")
	}
}

// Property: for any interleaving of receive/process operations, a
// reopened log reports exactly the keys that were received but not
// processed, in arrival order — i.e. replay is lossless and idempotent.
func TestRecoveryProperty(t *testing.T) {
	type op struct {
		Key     uint8
		Process bool
	}
	f := func(ops []op) bool {
		// Fresh directory per run: segments and checkpoints live
		// alongside the base path.
		dir, err := os.MkdirTemp(t.TempDir(), "prop")
		if err != nil {
			return false
		}
		path := filepath.Join(dir, "prop.plog")
		l, err := Open(path)
		if err != nil {
			return false
		}
		received := map[string]bool{}
		processed := map[string]bool{}
		var arrival []string
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if o.Process {
				if received[key] {
					if err := l.MarkProcessed(key, t0); err != nil {
						l.Close()
						return false
					}
					processed[key] = true
				}
				continue
			}
			if !received[key] {
				arrival = append(arrival, key)
				received[key] = true
			}
			if err := l.LogReceived(key, []byte(key), t0); err != nil {
				l.Close()
				return false
			}
		}
		l.Close()
		l2, err := Open(path)
		if err != nil {
			return false
		}
		defer l2.Close()
		var wantUnprocessed []string
		for _, k := range arrival {
			if !processed[k] {
				wantUnprocessed = append(wantUnprocessed, k)
			}
		}
		got := l2.Unprocessed()
		if len(got) != len(wantUnprocessed) {
			return false
		}
		for i := range got {
			if got[i].Key != wantUnprocessed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
