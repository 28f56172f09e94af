package plog

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"time"
)

// Binary journal framing. A segment opens with an 8-byte magic header
// and then carries length-prefixed binary frames:
//
//	offset  size  field
//	0       4     frame length N (u32 LE; bytes after this prefix)
//	4       1     record type ('R' = RECV, 'D' = DONE)
//	5       8     unix-nanos timestamp (i64 LE)
//	13      4     key length K (u32 LE)
//	17      K     key bytes
//	17+K    P     payload bytes (P = N − 17 − K; empty for DONE)
//	17+K+P  4     CRC32C (Castagnoli, LE) over bytes [4, 4+N−4)
//
// so N = 17 + K + P and a frame occupies 4 + N bytes on disk. The CRC
// covers everything after the length prefix except itself, so any
// single-bit flip inside a frame body is detected; replay stops at the
// first frame that fails its checksum (frames cannot be resynchronized
// past a corrupt length), counting it in Stats.CorruptRecords. A
// zero-valued length prefix marks the clean end of a preallocated
// segment's zero tail, and a frame cut short by a crash mid-write is a
// torn tail: replay keeps the intact prefix. CRC-valid frames with an
// unknown record type are skipped (forward compatibility).

// segMagic opens every segment; recovery refuses a file without it
// (replaySegment).
const segMagic = "SIMBAW1\n"

// segHeaderSize is the byte offset of the first frame in a binary
// segment.
const segHeaderSize = int64(len(segMagic))

const (
	frameRecv = byte('R')
	frameDone = byte('D')
	// frameOverhead is a frame's fixed body cost: type + nanos + key
	// length + CRC. The minimum frame length (empty key, no payload).
	frameOverhead = 1 + 8 + 4 + 4
	// frameMaxLen rejects absurd length prefixes (torn or corrupt)
	// before any allocation is sized from them.
	frameMaxLen = 1 << 28
)

// castagnoli is the CRC32C polynomial table; hash/crc32 dispatches to
// the hardware instruction (SSE4.2 CRC32 / ARMv8 CRC) when available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one binary frame to dst.
func appendFrame(dst []byte, typ byte, nanos int64, key string, payload []byte) []byte {
	n := frameOverhead + len(key) + len(payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	body := len(dst)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nanos))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[body:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// appendRecv appends a RECV frame to dst.
func appendRecv(dst []byte, nanos int64, key string, payload []byte) []byte {
	return appendFrame(dst, frameRecv, nanos, key, payload)
}

// appendDone appends a DONE frame to dst.
func appendDone(dst []byte, nanos int64, key string) []byte {
	return appendFrame(dst, frameDone, nanos, key, nil)
}

// replayFrames scans one binary segment stream positioned just past the
// magic header, applying every CRC-valid frame and returning the byte
// length of the intact frame sequence (excluding the header). It stops
// at the clean end (EOF or a zero length prefix — the preallocated
// tail), at a torn frame (length prefix promising more bytes than
// exist), or at the first checksum failure (counted in CorruptRecords;
// binary frames cannot resync past a bad record). Replayed records
// count toward the compaction trigger, so reopening with a long
// post-checkpoint tail schedules a fresh checkpoint promptly.
func (l *Log) replayFrames(r *bufio.Reader) (goodBytes int64) {
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return goodBytes // EOF or torn length prefix
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 {
			return goodBytes // preallocated zero tail: clean end
		}
		if n < frameOverhead || n > frameMaxLen {
			l.corrupt++
			return goodBytes
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return goodBytes // torn tail: incomplete frame
		}
		body := buf[:n-4]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[n-4:]) {
			l.corrupt++
			return goodBytes
		}
		l.applyFrame(body)
		goodBytes += int64(4 + n)
		l.sinceCkpt++
	}
}

// applyFrame applies one CRC-validated frame body (type through
// payload, checksum already stripped and verified).
func (l *Log) applyFrame(body []byte) {
	typ := body[0]
	nanos := int64(binary.LittleEndian.Uint64(body[1:9]))
	klen := int(binary.LittleEndian.Uint32(body[9:13]))
	if 13+klen > len(body) {
		// Checksum-valid but structurally inconsistent: a writer bug,
		// not disk damage. Count it and keep scanning — the frame
		// boundary itself is intact.
		l.corrupt++
		return
	}
	key := body[13 : 13+klen]
	payload := body[13+klen:]
	switch typ {
	case frameRecv:
		l.addReceivedLocked(string(key), l.replayCopy(payload), time.Unix(0, nanos).UTC())
	case frameDone:
		if i, ok := l.index[string(key)]; ok && !l.order[i].Processed {
			l.markProcessedLocked(i)
		}
	default:
		// Unknown record type: skip (forward compatibility).
	}
}

// replayChunk is the size of the slabs replayed RECV payloads are copied
// into: most of them meet their DONE later in the same replay, so they
// are packed into shared chunks rather than given an allocation each.
const replayChunk = 64 << 10

// replayCopy returns a private copy of p (the frame buffer is reused)
// inside the current replay chunk, starting a new chunk when p does not
// fit. The copy is cap-limited, as in stageRecv. Recovery only.
func (l *Log) replayCopy(p []byte) (copied []byte) {
	if len(p) > cap(l.replaySlab)-len(l.replaySlab) {
		l.replaySlab = make([]byte, 0, max(replayChunk, len(p)))
	}
	l.replaySlab, copied = appendSlab(l.replaySlab, p)
	return copied
}
