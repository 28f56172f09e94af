package plog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Segment naming: <base>.NNNNNNNN.seg, sequence numbers ascending from
// 1 with no reuse. The highest-numbered segment is the active one; all
// others are immutable. Checkpoints are <base>.ckpt.NNNNNNNN (see
// checkpoint.go), written atomically via <base>.ckpt.tmp + rename.

func (l *Log) segPath(seq uint64) string { return fmt.Sprintf("%s.%08d.seg", l.base, seq) }

func (l *Log) ckptPath(gen uint64) string { return fmt.Sprintf("%s.ckpt.%08d", l.base, gen) }

func (l *Log) ckptTmpPath() string { return l.base + ".ckpt.tmp" }

// syncDir fsyncs the journal's parent directory so renames and newly
// created segment files are durable.
func (l *Log) syncDir() error {
	if err := l.dirf.Sync(); err != nil {
		return fmt.Errorf("plog: syncing directory of %s: %w", l.base, err)
	}
	return nil
}

// scanFiles lists the on-disk segment sequences and checkpoint
// generations for this base path, both ascending.
func (l *Log) scanFiles() (segs, ckpts []uint64, err error) {
	entries, err := os.ReadDir(filepath.Dir(l.base))
	if err != nil {
		return nil, nil, fmt.Errorf("plog: scanning %s: %w", l.base, err)
	}
	prefix := filepath.Base(l.base) + "."
	for _, e := range entries {
		name := e.Name()
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		if numeric, ok := strings.CutSuffix(rest, ".seg"); ok {
			if seq, err := strconv.ParseUint(numeric, 10, 64); err == nil && seq > 0 {
				segs = append(segs, seq)
			}
			continue
		}
		if numeric, ok := strings.CutPrefix(rest, "ckpt."); ok && numeric != "tmp" {
			if gen, err := strconv.ParseUint(numeric, 10, 64); err == nil && gen > 0 {
				ckpts = append(ckpts, gen)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	return segs, ckpts, nil
}

// replay rebuilds the in-memory state from the files: load the newest
// valid checkpoint, delete segments the checkpoint covers (a crash may
// have interrupted the compactor's deletions), and replay only the
// segments past the watermark — the bounded-recovery path — in two passes
// (analyze, then redo). The final segment's torn tail, if any, is
// truncated and the segment becomes the active one.
func (l *Log) replay() error {
	defer func() { l.replaySlab, l.replayDone, l.replayKept = nil, nil, nil }()
	segs, ckpts, err := l.scanFiles()
	if err != nil {
		return err
	}
	if err := l.checkFormats(segs, ckpts); err != nil {
		return err
	}
	os.Remove(l.ckptTmpPath()) // a torn checkpoint write; never valid

	// Load the newest checkpoint that validates; fall back to the
	// previous one on corruption (the compactor retains it, and only
	// deletes segments once the *newer* checkpoint is durable, so the
	// fallback still has every segment it needs).
	var ckptRuns [][]byte
	var ckptTotal int64
	for i := len(ckpts) - 1; i >= 0; i-- {
		hdr, runs, err := l.loadCheckpoint(l.ckptPath(ckpts[i]))
		if err != nil {
			// A torn or corrupt checkpoint is useless; drop it and fall
			// back to the previous generation (its segments still exist
			// — the compactor deletes segments only after the *newer*
			// checkpoint is durable).
			l.corrupt++
			os.Remove(l.ckptPath(ckpts[i]))
			continue
		}
		ckptRuns, ckptTotal = runs, hdr.total
		l.ckptSeq = hdr.watermark
		l.ckptGen = ckpts[i]
		break
	}

	// Segments at or below the watermark are fully captured by the
	// checkpoint; remove any the compactor didn't get to.
	remaining := segs[:0]
	for _, seq := range segs {
		if seq <= l.ckptSeq {
			if fi, err := os.Stat(l.segPath(seq)); err == nil {
				l.compactedBytes.Add(fi.Size())
			}
			os.Remove(l.segPath(seq))
			continue
		}
		remaining = append(remaining, seq)
	}

	// Replay the tail segments in order, twice. Only the last one can
	// have a torn tail (earlier segments were retired by a rotation, which
	// happens only between fsynced appends) — but every segment is read
	// with the same tolerant frame scanner, in both passes.
	l.replayTotal = ckptTotal
	for _, seq := range remaining {
		if err := l.replaySegment(seq, false, l.analyze, &l.corrupt); err != nil {
			return err
		}
	}
	// A live log would still hold the tail's last D mod sweepEvery DONEs.
	dones, keep := l.replayDone, len(l.replayDone)
	if l.opts.Log.sweepEvery > 0 {
		keep %= l.opts.Log.sweepEvery
	}
	l.replayDone, l.replayKept = dones[:len(dones)-keep], dones[len(dones)-keep:]
	slices.Sort(l.replayDone)
	slices.Sort(l.replayKept)
	for _, body := range ckptRuns {
		l.redo(body)
	}
	l.total = ckptTotal
	for i, seq := range remaining {
		if err := l.replaySegment(seq, i == len(remaining)-1, l.redo, new(int64)); err != nil { // analyze counted the corrupt frames
			return err
		}
		l.replayedSegs++
	}
	if len(remaining) > 0 {
		l.oldestSeq = remaining[0]
		l.liveSegs = len(remaining)
		return nil
	}
	// No segments past the watermark: start a fresh one.
	seq := l.ckptSeq + 1
	if seq == 0 {
		seq = 1
	}
	f, err := l.createSegment(seq, false)
	if err != nil {
		return err
	}
	l.f, l.activeSeq, l.activeSize = f, seq, segHeaderSize
	l.oldestSeq = seq
	l.liveSegs = 1
	l.segsCreated.Add(1)
	return nil
}

// checkFormats refuses a directory holding a file of another journal
// format, naming the file and what it opens with, before recovery has
// deleted or truncated anything: replaying a foreign segment as empty
// would let the next checkpoint delete whatever it held, and a
// checkpoint of another version would be dropped as corrupt. A segment
// must open with segMagic, unless nothing of the header survived a crash
// (see tornHeader); a checkpoint that names a version must name
// ckptVersion (one too damaged to name any is loadCheckpoint's to
// reject).
func (l *Log) checkFormats(segs, ckpts []uint64) error {
	for _, seq := range segs {
		if head, err := readHead(l.segPath(seq)); err != nil {
			return err
		} else if string(head) != segMagic && !tornHeader(head) {
			return fmt.Errorf("plog: segment %s opens with %q, not %q: %w", l.segPath(seq), head, segMagic, ErrFormat)
		}
	}
	for _, gen := range ckpts {
		var version int
		if head, err := readHead(l.ckptPath(gen)); err != nil {
			return err
		} else if n, _ := fmt.Sscanf(string(head), "CKPT %d", &version); n == 1 && version != ckptVersion {
			return fmt.Errorf("plog: checkpoint %s is format CKPT %d, not CKPT %d: %w", l.ckptPath(gen), version, ckptVersion, ErrFormat)
		}
	}
	return nil
}

// readHead returns the first len(segMagic) bytes of the file at path,
// or as many as it has.
func readHead(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("plog: checking the format of %s: %w", path, err)
	}
	defer f.Close()
	head := make([]byte, len(segMagic))
	n, err := f.ReadAt(head, 0)
	if err == io.EOF {
		err = nil // a file shorter than the magic
	}
	return head[:n], err
}

// replaySegment runs one recovery pass, apply, over one segment and
// counts its corrupt frames in *corrupt. checkFormats has passed the
// segment: it opens with segMagic or, its header torn by a crash, is
// empty. The last (active) segment keeps its handle for appends, with
// the torn tail truncated away so subsequent appends start on a clean
// frame boundary, and is re-initialized in place if it was empty.
func (l *Log) replaySegment(seq uint64, active bool, apply func(body []byte) bool, corrupt *int64) error {
	path := l.segPath(seq)
	flags := os.O_RDONLY
	if active {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0)
	if err != nil {
		return fmt.Errorf("plog: opening segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("plog: sizing segment %s: %w", path, err)
	}
	r := bufio.NewReader(f)
	var goodBytes int64
	if peek, _ := r.Peek(len(segMagic)); string(peek) == segMagic {
		r.Discard(len(segMagic))
		goodBytes = segHeaderSize + scanFrames(r, fi.Size(), apply, corrupt)
	}
	if !active {
		return f.Close()
	}
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return fmt.Errorf("plog: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return fmt.Errorf("plog: seeking %s: %w", path, err)
	}
	if goodBytes == 0 {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("plog: writing segment header %s: %w", path, err)
		}
		goodBytes = segHeaderSize
	}
	l.preallocActive(f)
	l.f, l.activeSeq, l.activeSize = f, seq, goodBytes
	return nil
}

// tornHeader reports whether head — what exists of a segment's first
// len(segMagic) bytes — is what a crash between createSegment and the
// first fsync can leave: nothing, a strict prefix of the magic, or the
// zeros of a preallocation that reached the disk before the magic did.
func tornHeader(head []byte) bool {
	h := string(head)
	return strings.HasPrefix(segMagic, h) || strings.Trim(h, "\x00") == ""
}

// preallocCap bounds segment preallocation so configurations with an
// effectively unbounded SegmentBytes (sustained-write benchmarks use
// 1 TiB) don't reserve that much disk up front.
const preallocCap = 64 << 20

// preallocActive best-effort-reserves the configured segment size for
// f. Failure is ignored: ext2/ext3 and some network filesystems lack
// fallocate, and the segment then simply grows on demand as before.
// Replay treats the preallocated zero tail as a clean end (a zero
// length prefix is not a valid frame).
func (l *Log) preallocActive(f *os.File) {
	if sb := l.opts.Log.SegmentBytes; sb > 0 && sb <= preallocCap {
		_ = preallocate(f, sb)
	}
}

// createSegment creates a fresh binary segment file: magic header,
// best-effort preallocation, directory entry fsynced. The magic bytes
// themselves are not fsynced — the first append's Sync covers them,
// and a torn magic replays as an empty segment.
func (l *Log) createSegment(seq uint64, excl bool) (*os.File, error) {
	flags := os.O_CREATE | os.O_RDWR
	if excl {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(l.segPath(seq), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("plog: creating segment %s: %w", l.segPath(seq), err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("plog: writing segment header %s: %w", l.segPath(seq), err)
	}
	l.preallocActive(f)
	if err := l.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// rotateLocked retires the active segment and opens the next one. The
// caller holds l.fmu. The old segment's contents are already durable
// (every write is fsynced), so rotation only needs the new file's name
// to be durable before appends land in it. The retired segment is
// truncated to its real length so retained segments don't keep their
// preallocated tails (best-effort: an untruncated zero tail replays
// cleanly anyway).
func (l *Log) rotateLocked() error {
	seq := l.activeSeq + 1
	f, err := l.createSegment(seq, true)
	if err != nil {
		return fmt.Errorf("plog: rotating: %w", err)
	}
	_ = l.f.Truncate(l.activeSize)
	if err := l.f.Close(); err != nil {
		f.Close()
		return fmt.Errorf("plog: closing retired segment: %w", err)
	}
	l.f, l.activeSeq, l.activeSize = f, seq, segHeaderSize
	l.liveSegs++
	l.segsCreated.Add(1)
	return nil
}
