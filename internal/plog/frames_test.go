package plog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// frameInfo is one whole frame of a segment as walkFrames found it: its
// body (type byte up to the checksum), the absolute offset it ends at,
// and how many records of each kind it claims to hold.
type frameInfo struct {
	body              []byte
	end, recvs, dones int
}

// walkFrames walks raw segment bytes the way recovery must — the magic
// header, then whole CRC-valid frames until the data runs out or stops
// making sense — without the package's own reader or decoders. corrupt
// says the walk ended at provable damage (an impossible length, a failed
// checksum) rather than at the clean end or a torn frame. A file whose
// magic itself was torn holds no frames.
func walkFrames(data []byte) (frames []frameInfo, corrupt bool) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, false
	}
	off := len(segMagic)
	for off+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 {
			break
		}
		if n < frameMinLen || n > frameMaxLen {
			return frames, true
		}
		if off+4+n > len(data) {
			break
		}
		body := data[off+4 : off+n]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+n:]) {
			return frames, true
		}
		off += 4 + n
		f := frameInfo{body: body, end: off}
		switch body[0] {
		case frameRecv:
			if len(body) > 9 {
				_, w := binary.Uvarint(body[9:]) // first seq
				count, _ := binary.Uvarint(body[9+max(w, 0):])
				f.recvs = int(count)
			}
		case frameDone:
			count, _ := binary.Uvarint(body[1:])
			f.dones = int(count)
		}
		frames = append(frames, f)
	}
	return frames, false
}

// replayModel is what Open must rebuild from a segment: the reference
// the damaged-journal checks compare a reopened Log against. It applies
// whole frames only, by the rules binary.go states, with its own parser.
type replayModel struct {
	total   int64
	order   []Record
	corrupt int64
}

// modelCursor reads the wire format for the model; bad latches.
type modelCursor struct {
	p   []byte
	bad bool
}

func (c *modelCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.bad, c.p = true, nil
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *modelCursor) bytes() []byte {
	n := c.uvarint()
	if n > uint64(len(c.p)) {
		c.bad, c.p = true, nil
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

// modelOf replays seg by the rules, in two passes as recovery does: the
// first learns which seqs are DONE (a DONE counts only once its RECV has
// been seen), the second indexes the runs. A RECV whose key is resident
// and unprocessed is a duplicate (first wins); one whose key is resident
// only as a DONE record supersedes it — the live log re-logs a key only
// once its sweep retired the first record. Which DONE records replay keeps
// as tombstones changes nothing the model is compared on.
func modelOf(seg []byte) (m replayModel) {
	frames, corrupt := walkFrames(seg)
	if corrupt {
		m.corrupt++
	}
	var runs [][]Record
	done := map[int64]bool{}
	for _, f := range frames {
		switch f.body[0] {
		case frameRecv:
			if len(f.body) < 9 {
				m.corrupt++
				continue
			}
			at := time.Unix(0, int64(binary.LittleEndian.Uint64(f.body[1:9]))).UTC()
			c := modelCursor{p: f.body[9:]}
			first, count := c.uvarint(), c.uvarint()
			if first == 0 || first > 1<<62 || count == 0 || count > uint64(len(c.p)) {
				c.bad = true
			}
			var run []Record
			for i := uint64(0); i < count && !c.bad; i++ {
				key, payload := c.bytes(), c.bytes()
				run = append(run, Record{Key: string(key), Payload: payload, ReceivedAt: at, seq: int64(first + i)})
			}
			if c.bad || len(c.p) != 0 {
				m.corrupt++
				continue
			}
			runs = append(runs, run)
			m.total = max(m.total, run[len(run)-1].seq)
		case frameDone:
			c := modelCursor{p: f.body[1:]}
			count := c.uvarint()
			if count > uint64(len(c.p)) {
				c.bad = true
			}
			var seqs []int64
			var seq uint64
			for i := uint64(0); i < count && !c.bad; i++ {
				seq += c.uvarint()
				seqs = append(seqs, int64(seq))
			}
			if c.bad || len(c.p) != 0 {
				m.corrupt++
				continue
			}
			for _, s := range seqs {
				done[s] = done[s] || s <= m.total
			}
		}
	}
	m.total = 0
	for _, run := range runs {
		for _, r := range run {
			if r.seq <= m.total {
				continue
			}
			m.total = r.seq
			i := slices.IndexFunc(m.order, func(o Record) bool { return o.Key == r.Key })
			if i >= 0 && !m.order[i].Processed {
				continue
			}
			if i >= 0 {
				m.order = slices.Delete(m.order, i, i+1)
			}
			r.Processed = done[r.seq]
			m.order = append(m.order, r)
		}
	}
	return m
}

// checkReplay writes seg as the only segment of a journal, opens it and
// compares what Open rebuilt with the model: the same all-time total,
// the same unprocessed records in the same order with the same bytes,
// the same count of corrupt frames — so nothing past the damage, never
// part of a burst, never a DONE whose RECV was cut — and a log that
// still takes an append and keeps it across another reopen. A segment
// whose header is foreign (not the magic, not what a crash leaves of it)
// must be refused, and left as it was.
func checkReplay(t *testing.T, dir string, seg []byte) {
	t.Helper()
	base := filepath.Join(dir, "j.plog")
	old, _ := filepath.Glob(base + ".*")
	for _, f := range old {
		os.Remove(f)
	}
	segPath := base + ".00000001.seg"
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	head := seg[:min(len(seg), len(segMagic))]
	l, err := Open(base)
	if string(head) != segMagic && !tornHeader(head) {
		if err == nil {
			l.Close()
			t.Fatalf("segment opening with %q was accepted", head)
		}
		if got, _ := os.ReadFile(segPath); string(got) != string(seg) {
			t.Fatalf("refused segment was modified")
		}
		return
	}
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := modelOf(seg)
	if got := l.Stats().CorruptRecords; got != want.corrupt {
		t.Errorf("CorruptRecords = %d, want %d", got, want.corrupt)
	}
	if got := int64(l.Len()); got != want.total {
		t.Errorf("Len = %d, want %d", got, want.total)
	}
	var wantUn []Record
	for _, r := range want.order {
		if !r.Processed {
			wantUn = append(wantUn, r)
		}
	}
	un := l.Unprocessed()
	if len(un) != len(wantUn) {
		t.Fatalf("%d unprocessed records, want %d", len(un), len(wantUn))
	}
	for i, r := range un {
		w := wantUn[i]
		if r.Key != w.Key || string(r.Payload) != string(w.Payload) || !r.ReceivedAt.Equal(w.ReceivedAt) || r.seq != w.seq {
			t.Fatalf("unprocessed[%d] = %q/%q seq %d, want %q/%q seq %d", i, r.Key, r.Payload, r.seq, w.Key, w.Payload, w.seq)
		}
	}
	const after = "appended-after-recovery"
	if want.has(after) { // only a fuzz input could
		l.Close()
		return
	}
	if err := l.LogReceived(after, []byte("p"), t0); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(base)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	defer re.Close()
	if !re.Has(after) || re.Pending() != len(wantUn)+1 {
		t.Fatalf("after an append and a reopen: Has = %v, Pending = %d, want %d", re.Has(after), re.Pending(), len(wantUn)+1)
	}
}

func (m replayModel) has(key string) bool {
	for _, r := range m.order {
		if r.Key == key {
			return true
		}
	}
	return false
}

// damageJournal builds, through the public API, one segment holding
// what the format has: runs of 1, 8 and 64 entries, a burst split into two runs by a change of timestamp, duplicate keys
// inside a burst, ReplaceAsync pairs (RECV run then DONE list in one
// commit), and DONE lists of one and of many seqs. The bytes are the same
// every time: on a window-0 log every synchronous call is a commit of its
// own, and the async records are flushed before the next one.
func damageJournal(t testing.TB) []byte {
	t.Helper()
	base := filepath.Join(t.TempDir(), "j.plog")
	l, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	burst := func(tag string, n int, at func(i int) time.Time) (entries []BatchEntry, keys []string) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s-%02d", tag, i)
			entries = append(entries, BatchEntry{Key: key, Payload: []byte("payload of " + key), At: at(i)})
			keys = append(keys, key)
		}
		return entries, keys
	}
	same := func(int) time.Time { return t0 }
	must(l.LogReceived("one", []byte("a run of one"), t0))
	b8, k8 := burst("b8", 8, same)
	must(l.LogReceivedBatch(b8))
	must(l.MarkProcessed(k8[3], t0))
	must(l.ReplaceAsync("one", "one.r2", []byte("round two"), t0.Add(time.Second)))
	must(l.Flush())
	b64, k64 := burst("b64", 64, same)
	b64[9].Key, b64[9].Payload = b64[8].Key, nil // a duplicate inside the burst: first wins, no seq spent
	must(l.LogReceivedBatch(b64))
	if errs := l.MarkProcessedBatchAsync(append(k64[20:50:50], k8[0], k8[7]), t0); errs != nil {
		t.Fatal(errs)
	}
	must(l.Flush())
	split, _ := burst("split", 6, func(i int) time.Time { return t0.Add(time.Duration(i/3) * time.Minute) })
	must(l.LogReceivedBatch(split))
	must(l.ReplaceAsync("one.r2", "one.r3", nil, t0.Add(2*time.Second)))
	must(l.Flush())
	must(l.MarkProcessed(k64[0], t0))
	must(l.Close())
	data, err := os.ReadFile(activeSegmentPath(t, base))
	if err != nil {
		t.Fatal(err)
	}
	frames, corrupt := walkFrames(data)
	var shape []string
	for _, f := range frames {
		shape = append(shape, fmt.Sprintf("%c%d", f.body[0], f.recvs+f.dones))
	}
	const want = "R1 R8 D1 R1 D1 R63 D32 R3 R3 R1 D1 D1"
	if got := strings.Join(shape, " "); got != want || corrupt || frames[len(frames)-1].end != len(data) {
		t.Fatalf("journal frames are %s (corrupt %v), want %s", got, corrupt, want)
	}
	return data
}

// TestReplayTornAtEveryOffsetFlippedAtRandomOnes: the journal cut at
// every byte offset, as a crash mid-write leaves it, and with one bit
// flipped at 1,000 seeded offsets, as a bad sector leaves it. Open never
// panics and rebuilds exactly the whole frames before the damage; a cut
// is never counted as corruption.
func TestReplayTornAtEveryOffsetFlippedAtRandomOnes(t *testing.T) {
	pristine := damageJournal(t)
	dir := t.TempDir()
	checkReplay(t, dir, pristine)
	for cut := 0; cut < len(pristine); cut++ {
		checkReplay(t, dir, pristine[:cut])
		if t.Failed() {
			t.Fatalf("cut at %d of %d", cut, len(pristine))
		}
		if m := modelOf(pristine[:cut]); m.corrupt != 0 {
			t.Fatalf("cut at %d counts as %d corrupt frames: a torn tail is not corruption", cut, m.corrupt)
		}
	}
	rnd := rand.New(rand.NewSource(20010326))
	data := make([]byte, len(pristine))
	for trial := 0; trial < 1000; trial++ {
		off, bit := rnd.Intn(len(pristine)), byte(1)<<rnd.Intn(8)
		copy(data, pristine)
		data[off] ^= bit
		checkReplay(t, dir, data)
		if t.Failed() {
			t.Fatalf("trial %d: bit %#02x flipped at %d", trial, bit, off)
		}
	}
}

// sealFrames turns fuzz bytes into whole frames with correct lengths and
// checksums — each chunk is a length byte and that many bytes of body —
// so the fuzzer reaches the run and list decoders instead of stopping at
// the first checksum.
func sealFrames(data []byte) []byte {
	out := []byte(segMagic)
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		if n > 0 {
			start := len(out)
			out = append(out, 0, 0, 0, 0)
			out = append(out, data[1:1+n]...)
			out = endFrame(out, start)
		}
		data = data[1+n:]
	}
	return out
}

// FuzzReplayFrames is checkReplay over arbitrary bytes: as a segment
// file verbatim, or (sealed) as frame bodies given valid framing.
func FuzzReplayFrames(f *testing.F) {
	pristine := damageJournal(f)
	f.Add(pristine, false)
	f.Add(pristine[:len(pristine)/2], false)
	frames, _ := walkFrames(pristine)
	var bodies []byte
	for _, fr := range frames {
		if len(fr.body) < 256 {
			bodies = append(append(bodies, byte(len(fr.body))), fr.body...)
		}
	}
	f.Add(bodies, true)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			data = sealFrames(data)
		}
		checkReplay(t, dir, data)
	})
}

// TestCorruptLengthPrefixSizesNoAllocation: a length prefix that passes
// the sanity bound but promises more than the file holds is a torn tail,
// found out from the file's size — not by allocating a buffer of that
// length and failing to fill it.
func TestCorruptLengthPrefixSizesNoAllocation(t *testing.T) {
	pristine := damageJournal(t)
	want := modelOf(pristine)
	seg := binary.LittleEndian.AppendUint32(append([]byte(nil), pristine...), 200<<20)
	seg = append(seg, "the start of a frame that never arrived"...)
	base := filepath.Join(t.TempDir(), "j.plog")
	if err := os.WriteFile(base+".00000001.seg", seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(base)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Open allocated %d bytes replaying a %d-byte segment", grew, len(seg))
	}
	if st := l.Stats(); st.CorruptRecords != 0 || st.Total != want.total || st.DiskBytes != int64(len(pristine)) {
		t.Fatalf("recovered total %d, corrupt %d, %d bytes; want %d, 0, %d (the whole frames, the tail truncated)",
			st.Total, st.CorruptRecords, st.DiskBytes, want.total, len(pristine))
	}
	if got, wantUn := l.Pending(), want.pending(); got != wantUn {
		t.Fatalf("%d unprocessed records, want %d", got, wantUn)
	}
}

func (m replayModel) pending() (n int) {
	for _, r := range m.order {
		if !r.Processed {
			n++
		}
	}
	return n
}
