package plog

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"time"
)

// Binary journal framing. Every logged record has an all-time ordinal,
// its seq: the value of Log.total that admitted it, starting at 1 and
// carried across compaction by the checkpoint header. A segment opens
// with an 8-byte magic header and then carries length-prefixed frames of
// two kinds. A RECV run is one ingest burst — entries that share a
// receive timestamp and have consecutive seqs:
//
//	u32 LE   frame length N (bytes after this prefix)
//	u8       'R'
//	i64 LE   unix-nanos receive timestamp of every entry
//	uvarint  seq of the first entry
//	uvarint  entry count C
//	C ×      uvarint key length, key, uvarint payload length, payload
//	u32 LE   CRC32C (Castagnoli) over everything after the prefix but itself
//
// and a DONE list names the records a commit batch marked processed, by
// seq:
//
//	u32 LE   frame length N
//	u8       'D'
//	uvarint  seq count C
//	C ×      uvarint delta from the previous seq (ascending; the first from 0)
//	u32 LE   CRC32C
//
// A burst whose entries differ in timestamp, a checkpoint's unprocessed
// set (whose seqs have gaps), or a run that reaches runMaxBytes is
// simply written as several runs, so segments and checkpoints share the
// one codec below. A commit batch's DONE list is written after its RECV
// runs, so a DONE never precedes the RECV it names.
//
// A frame is applied whole or not at all. Replay stops at the first
// frame that fails its checksum or carries an impossible length (frames
// cannot be resynchronized past a corrupt length), counting it in
// Stats.CorruptRecords. A zero length prefix marks the clean end of a
// preallocated segment's zero tail, and a frame promising more bytes
// than the file holds was cut short by a crash mid-write — a torn tail:
// replay keeps the whole frames before it. A CRC-valid frame of an
// unknown type is skipped (forward compatibility); one of a known type
// whose body does not parse is a writer bug, counted and skipped.

// segMagic opens every segment; recovery refuses a file that opens with
// anything else (checkFormats). The version also covers what the
// journal's users write: SIMBAW3 made the hub's payloads binary alert
// records instead of SIMBAW2's text, SIMBAW4 moved the retry outbox's
// envelopes into the hub's WAL, so a SIMBAW3 hub directory — whose
// pending envelopes sit in a second journal this build never opens — is
// refused rather than opened without them, and SIMBAW5's records
// (alert.AppendRecord) leave out what their keys hold: an alert's
// Source, ID and Created, an envelope's User and Round.
const segMagic = "SIMBAW5\n"

// segHeaderSize is the byte offset of the first frame in a segment.
const segHeaderSize = int64(len(segMagic))

const (
	frameRecv = byte('R')
	frameDone = byte('D')
	// frameMinLen is the shortest frame length: a type byte and the CRC.
	frameMinLen = 1 + 4
	// frameMaxLen rejects absurd length prefixes (torn or corrupt).
	frameMaxLen = 1 << 28
	// runMaxBytes closes a RECV run once its keys and payloads reach this
	// size, so no burst or checkpoint, however large, writes a frame
	// near frameMaxLen.
	runMaxBytes = 1 << 20
)

// castagnoli is the CRC32C polynomial table; hash/crc32 dispatches to
// the hardware instruction (SSE4.2 CRC32 / ARMv8 CRC) when available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginFrame starts a frame of type typ at the end of dst, reserving its
// length prefix; endFrame, given the same start, seals it.
func beginFrame(dst []byte, typ byte) (out []byte, start int) {
	return append(dst, 0, 0, 0, 0, typ), len(dst)
}

// endFrame appends the checksum of the frame begun at start and fills
// in its length prefix.
func endFrame(dst []byte, start int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+4:], castagnoli))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendRun appends one RECV run holding the longest prefix of recs
// (which must not be empty) that a run can hold — same timestamp,
// consecutive seqs, under runMaxBytes — and reports how many it took.
func appendRun(dst []byte, recs []Record) (out []byte, n int) {
	first, nanos := recs[0].seq, recs[0].ReceivedAt.UnixNano()
	for size := 0; n < len(recs) && size < runMaxBytes; n++ {
		r := &recs[n]
		if r.seq != first+int64(n) || r.ReceivedAt.UnixNano() != nanos {
			break
		}
		size += len(r.Key) + len(r.Payload)
	}
	dst, start := beginFrame(dst, frameRecv)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nanos))
	dst = binary.AppendUvarint(dst, uint64(first))
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range recs[:n] {
		r := &recs[i]
		dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
		dst = append(dst, r.Key...)
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return endFrame(dst, start), n
}

// appendDoneList appends one DONE list naming seqs, which it sorts.
func appendDoneList(dst []byte, seqs []int64) []byte {
	slices.Sort(seqs)
	dst, start := beginFrame(dst, frameDone)
	dst = binary.AppendUvarint(dst, uint64(len(seqs)))
	prev := int64(0)
	for _, s := range seqs {
		dst = binary.AppendUvarint(dst, uint64(s-prev))
		prev = s
	}
	return endFrame(dst, start)
}

// cursor reads the fields of one frame body; bad latches once a field
// does not fit what is left, and every later read returns zero.
type cursor struct {
	p   []byte
	bad bool
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.bad, c.p = true, nil
		return 0
	}
	c.p = c.p[n:]
	return v
}

// field reads a uvarint length and that many bytes, cap-limited.
func (c *cursor) field() []byte {
	n := c.uvarint()
	if n > uint64(len(c.p)) {
		c.bad, c.p = true, nil
		return nil
	}
	f := c.p[:n:n]
	c.p = c.p[n:]
	return f
}

// checkRun validates one CRC-validated RECV run body — ok is false unless
// it is exactly one well-formed run of at least one entry — and returns
// its timestamp, first seq, entry count and a cursor over its entries.
func checkRun(body []byte) (at time.Time, first int64, n int, entries cursor, ok bool) {
	if len(body) < 9 {
		return at, 0, 0, entries, false
	}
	c := cursor{p: body[9:]}
	f, count := c.uvarint(), c.uvarint()
	entries = c
	for i := uint64(0); i < count && !c.bad; i++ {
		c.field()
		c.field()
	}
	if c.bad || len(c.p) != 0 || count == 0 || f == 0 || f > 1<<62 {
		return at, 0, 0, entries, false
	}
	return time.Unix(0, int64(binary.LittleEndian.Uint64(body[1:9]))).UTC(), int64(f), int(count), entries, true
}

// decodeDoneList appends the seqs of one CRC-validated DONE list body to
// seqs, ascending; ok is false when the body does not parse.
func decodeDoneList(body []byte, seqs []int64) (out []int64, ok bool) {
	c := cursor{p: body[1:]}
	out = seqs
	var seq uint64
	for i, count := uint64(0), c.uvarint(); i < count && !c.bad; i++ {
		seq += c.uvarint()
		out = append(out, int64(seq))
	}
	if c.bad || len(c.p) != 0 {
		return seqs, false
	}
	return out, true
}

// frameReader walks the frames of one file: a segment past its magic,
// or a checkpoint past its header line.
type frameReader struct {
	r *bufio.Reader
	// left is how many bytes of the file are still unread; a length
	// prefix is checked against it before a buffer is sized from it.
	left int64
	buf  []byte // reused from frame to frame unless the caller clears it
}

// next returns the next frame's body — type byte through last entry, the
// checksum verified and stripped — in a buffer valid until the next
// call. A nil body is where reading stops: at the clean end (EOF or a
// zero length prefix, the preallocated tail) or a torn frame when
// corrupt is false, at an impossible length or a checksum failure when
// it is true.
func (fr *frameReader) next() (body []byte, corrupt bool) {
	hdr, err := fr.r.Peek(4)
	if err != nil {
		return nil, false // EOF or torn length prefix
	}
	n := int64(binary.LittleEndian.Uint32(hdr))
	fr.r.Discard(4)
	switch {
	case n != 0 && (n < frameMinLen || n > frameMaxLen):
		return nil, true
	case n == 0 || n > fr.left-4:
		return nil, false // the zero tail, or torn: the file ends before the frame does
	}
	fr.left -= 4 + n
	if int64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return nil, false
	}
	if crc32.Checksum(buf[:n-4], castagnoli) != binary.LittleEndian.Uint32(buf[n-4:]) {
		return nil, true
	}
	return buf[:n-4], false
}

// scanFrames hands every valid frame of one segment of size bytes, whose
// reader is just past the magic header, to apply, and returns the length
// of the intact frame sequence (excluding the header). It counts in
// *corrupt the frame reading stopped at, if any, and each apply rejects.
func scanFrames(r *bufio.Reader, size int64, apply func(body []byte) (ok bool), corrupt *int64) (goodBytes int64) {
	fr := frameReader{r: r, left: size - segHeaderSize}
	for {
		body, bad := fr.next()
		if body == nil {
			if bad {
				*corrupt++
			}
			return goodBytes
		}
		goodBytes += 4 + int64(len(body)) + 4
		if !apply(body) {
			*corrupt++ // the frame boundary itself is intact: keep scanning
		}
	}
}

// analyze is recovery's analysis pass over one tail frame (after ARIES,
// Mohan et al., TODS 1992: learn what is finished before redoing
// anything). It collects the seqs DONE lists name in replayDone, except
// those above the newest RECV seq seen so far (replayTotal), and counts
// every record toward the compaction trigger.
func (l *Log) analyze(body []byte) (ok bool) {
	switch body[0] {
	case frameRecv:
		_, first, n, _, ok := checkRun(body)
		if ok {
			l.replayTotal = max(l.replayTotal, first+int64(n)-1)
			l.sinceCkpt += int64(n)
		}
		return ok
	case frameDone:
		from := len(l.replayDone)
		if l.replayDone, ok = decodeDoneList(body, l.replayDone); ok {
			l.sinceCkpt += int64(len(l.replayDone) - from)
			for len(l.replayDone) > from && l.replayDone[len(l.replayDone)-1] > l.replayTotal {
				l.replayDone = l.replayDone[:len(l.replayDone)-1]
			}
		}
		return ok
	}
	return true
}

// redo is recovery's redo pass over one RECV run, a tail segment's or a
// checkpoint's. It indexes what keeps admits, copying unprocessed
// payloads out of the frame buffer, and counts a DONE record it skips in
// retired without keying, copying or mapping it. The kept keys share one
// string, a live burst's key-slab rule. A key resident as a tombstone is
// superseded: a live log re-logs a key only once the sweep retired it.
func (l *Log) redo(body []byte) bool {
	if body[0] != frameRecv {
		return true
	}
	at, first, n, entries, ok := checkRun(body)
	if !ok {
		return true // analyze counted it
	}
	size := 0
	for c, seq := entries, first; len(c.p) > 0; seq++ {
		k, _ := c.field(), c.field()
		if keep, _ := l.keeps(seq); keep {
			size += len(k)
		}
	}
	var keys strings.Builder
	keys.Grow(size)
	for c, seq := entries, first; len(c.p) > 0; seq++ {
		k, p := c.field(), c.field()
		keep, done := l.keeps(seq)
		if !keep {
			if done {
				l.retired++
			}
			continue
		}
		if j, ok := l.index[string(k)]; ok {
			if !l.order[j].Processed {
				continue // first wins
			}
			delete(l.index, l.order[j].Key) // the tombstone stays in order, unindexed, until the next sweep
		}
		if done {
			p = nil
		}
		lo := keys.Len()
		keys.Write(k)
		l.addReceivedLocked(keys.String()[lo:], l.replayCopy(p), at, seq)
		if done {
			l.markProcessedLocked(len(l.order) - 1)
		}
	}
	l.total = max(l.total, first+int64(n)-1) // a key already resident took no seq above
	return true
}

// keeps reports whether replay indexes record seq, and whether it is DONE:
// none at or below total (the checkpoint accounts for those), and a DONE
// one only if replayKept names it — a tombstone a live log still holds.
func (l *Log) keeps(seq int64) (keep, done bool) {
	_, kept := slices.BinarySearch(l.replayKept, seq)
	_, done = slices.BinarySearch(l.replayDone, seq)
	return seq > l.total && (kept || !done), seq > l.total && (kept || done)
}

// replayChunk is the size of the slabs replayed payloads are copied into:
// only unprocessed records reach them, packed into shared chunks rather
// than given an allocation each.
const replayChunk = 64 << 10

// replayCopy returns a private copy of p (the frame buffer is reused)
// inside the current replay chunk, starting a new chunk when p does not
// fit. The copy is cap-limited, as in rehome. Recovery only.
func (l *Log) replayCopy(p []byte) (copied []byte) {
	if len(p) > cap(l.replaySlab)-len(l.replaySlab) {
		l.replaySlab = make([]byte, 0, max(replayChunk, len(p)))
	}
	l.replaySlab, copied = appendSlab(l.replaySlab, p)
	return copied
}
