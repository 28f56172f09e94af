package plog

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// frameEnds returns the absolute end offset of every whole frame of a
// segment.
func frameEnds(data []byte) []int {
	var ends []int
	frames, _ := walkFrames(data)
	for _, f := range frames {
		ends = append(ends, f.end)
	}
	return ends
}

// TestLanePathLayout pins the on-disk contract: lane 0 IS the base
// journal (single-lane sets are bit-compatible with a plain log) and
// higher lanes get numbered suffixes.
func TestLanePathLayout(t *testing.T) {
	if got := LanePath("/x/hub.wal", 0); got != "/x/hub.wal" {
		t.Fatalf("LanePath(0) = %q, want the base path itself", got)
	}
	if got := LanePath("/x/hub.wal", 3); got != "/x/hub.wal.lane03" {
		t.Fatalf("LanePath(3) = %q", got)
	}

	// A 1-lane set round-trips with a plain Log on the same path.
	base := filepath.Join(t.TempDir(), "compat.plog")
	s, err := OpenLanes(base, 1, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Lane(0).LogReceived("k", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Has("k") || l.IsProcessed("k") {
		t.Fatal("plain Log does not see the 1-lane set's record")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	wide, err := OpenLanes(base, 3, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Lanes() != 3 {
		t.Fatalf("OpenLanes(3) opened %d lanes", wide.Lanes())
	}
	if err := wide.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLaneTailCorruptionFuzz (the name predates the hub's single
// journal) flips random bytes in a log's binary tail: recovery must stop
// at the last frame before the flip, count the corruption, and keep the
// surviving prefix intact.
func TestLaneTailCorruptionFuzz(t *testing.T) {
	const records = 24
	base := filepath.Join(t.TempDir(), "fuzz.plog")
	l, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("k%04d", i)
		if err := l.LogReceived(key, []byte("payload-"+key), t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegmentPath(t, base)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(pristine)
	if len(ends) != records || ends[len(ends)-1] != len(pristine) {
		t.Fatalf("pristine log holds %d frames over %d/%d bytes", len(ends), ends[len(ends)-1], len(pristine))
	}

	rnd := rand.New(rand.NewSource(20010326))
	for trial := 0; trial < 25; trial++ {
		off := int(segHeaderSize) + rnd.Intn(len(pristine)-int(segHeaderSize))
		data := append([]byte(nil), pristine...)
		data[off] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every frame ending at or before the flip survives; the flipped
		// frame and everything after it is lost.
		survivors := 0
		for _, e := range ends {
			if e <= off {
				survivors++
			}
		}
		// Whether the stop is *provably* corruption depends on where the
		// flip landed: a bad length or failed checksum is counted, but a
		// flipped length prefix that claims more bytes than the file
		// holds is indistinguishable from a torn write and stops silently.
		b := int(segHeaderSize)
		if survivors > 0 {
			b = ends[survivors-1]
		}
		wantCorrupt := false
		if b+4 <= len(data) {
			n := int(binary.LittleEndian.Uint32(data[b : b+4]))
			if n < frameMinLen || n > frameMaxLen {
				wantCorrupt = true
			} else if b+4+n <= len(data) {
				wantCorrupt = true // frame complete, so the flip breaks its CRC
			}
		}
		re, err := Open(base)
		if err != nil {
			t.Fatalf("trial %d (flip@%d): recovery rejected corrupt log: %v", trial, off, err)
		}
		if got := re.Len(); got != survivors {
			t.Fatalf("trial %d (flip@%d): recovered %d records, want %d", trial, off, got, survivors)
		}
		if got := re.Stats().CorruptRecords > 0; got != wantCorrupt {
			t.Fatalf("trial %d (flip@%d): corruption counted = %v, want %v", trial, off, got, wantCorrupt)
		}
		un := re.Unprocessed()
		if len(un) != survivors {
			t.Fatalf("trial %d: unprocessed = %d, want %d", trial, len(un), survivors)
		}
		for j, rec := range un {
			want := fmt.Sprintf("k%04d", j)
			if rec.Key != want || string(rec.Payload) != "payload-"+want {
				t.Fatalf("trial %d: surviving prefix diverges at %d: %q/%q", trial, j, rec.Key, rec.Payload)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
