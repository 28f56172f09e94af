package plog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Checkpoint format (version 6, which pairs with segMagic's SIMBAW5):
//
//	CKPT 6 <gen> <watermark> <count> <total> <unix-nanos>
//	<binary RECV run> …   holding count entries (binary.go has the layout)
//	END <count>
//
// The header names the format version, the checkpoint generation,
// the watermark (every segment with sequence <= watermark is fully
// captured), the number of unprocessed records that follow, and the
// all-time logged-alert total — the newest seq assigned when the
// snapshot was taken, so Len and the seq numbering survive compaction.
// The records keep their seqs (a run ends at every gap a processed
// record left), so a DONE list written after the checkpoint still names
// them. The END trailer makes truncation detectable. A checkpoint is
// written to <base>.ckpt.tmp, fsynced, renamed to <base>.ckpt.<gen>, and
// the directory fsynced — so a crash at any point leaves either the
// previous checkpoint intact or both: a half-written tmp file is
// ignored by recovery, and segments are deleted only after the rename
// is durable, which is what lets recovery fall back to the previous
// checkpoint plus full segment replay.

// ckptVersion is the checkpoint format recovery reads; a checkpoint of
// any other version is refused before anything is touched (checkFormats).
const ckptVersion = 6

type ckptHeader struct {
	gen       uint64
	watermark uint64
	count     int64
	total     int64
}

// maybeCompactLocked starts a background checkpoint once
// CheckpointEvery records have been appended since the last one and
// none is running; a trigger that trips while one runs is picked up by
// the next commit. The committer calls it holding l.fmu, so Close,
// which waits for the committer first, sees every goroutine started.
// Errors are dropped: the journal stays correct without checkpoints,
// just unbounded.
func (l *Log) maybeCompactLocked() {
	every := l.opts.Log.CheckpointEvery
	if every <= 0 || l.sinceCkpt < every || !l.compacting.CompareAndSwap(false, true) {
		return
	}
	l.compactWG.Add(1)
	go func() {
		defer l.compactWG.Done()
		_ = l.Checkpoint()
		l.compacting.Store(false)
	}()
}

// Checkpoint writes a durable checkpoint of the unprocessed set and
// compacts away every segment it covers, bounding disk and recovery
// time to O(unprocessed + tail). Safe to call concurrently with
// appends; concurrent Checkpoint calls serialize. Returns nil without
// writing when nothing was appended since the last checkpoint.
func (l *Log) Checkpoint() error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	// Flush what is staged first, so lazily paced DONEs land in the
	// segments about to be compacted away rather than trailing into the
	// next one.
	if err := l.Flush(); err != nil {
		return err
	}

	l.fmu.Lock()
	if l.f == nil {
		l.fmu.Unlock()
		return ErrClosed
	}
	if l.sinceCkpt == 0 {
		l.fmu.Unlock()
		return nil
	}
	// Rotate so the watermark covers every durable record: everything
	// at or below activeSeq-1 is immutable and captured by the
	// snapshot; appends racing the checkpoint land past the watermark
	// and replay on recovery.
	if l.activeSize > segHeaderSize {
		if err := l.rotateLocked(); err != nil {
			l.fmu.Unlock()
			return err
		}
	}
	prevGen := l.ckptGen
	prevSeq := l.ckptSeq
	hdr := ckptHeader{
		gen:       prevGen + 1,
		watermark: l.activeSeq - 1,
	}
	l.sinceCkpt = 0
	// Snapshot the index with the file lock still held, so the committer
	// cannot write between the rotate and the snapshot: the index is
	// never behind the disk (records are indexed when staged), and here
	// it is ahead of the retired segments only by what is still queued.
	l.mu.Lock()
	hdr.total = l.total
	recs := l.unprocessedLocked() // payload bytes are immutable once logged
	l.mu.Unlock()
	l.fmu.Unlock()
	hdr.count = int64(len(recs))

	if err := l.writeCheckpoint(hdr, recs); err != nil {
		return err
	}

	l.fmu.Lock()
	l.ckptGen = hdr.gen
	l.ckptSeq = hdr.watermark
	l.oldestSeq = hdr.watermark + 1
	l.liveSegs = int(l.activeSeq - hdr.watermark)
	l.fmu.Unlock()
	l.ckptsWritten.Add(1)

	// Only now — with the new checkpoint durable — delete the segments
	// it covers, and prune checkpoints down to the new generation plus
	// its fallback (the previous durable one).
	for seq := prevSeq + 1; seq <= hdr.watermark; seq++ {
		path := l.segPath(seq)
		if fi, err := os.Stat(path); err == nil {
			l.compactedBytes.Add(fi.Size())
		}
		os.Remove(path)
	}
	if _, ckpts, err := l.scanFiles(); err == nil {
		for _, gen := range ckpts {
			if gen != hdr.gen && gen != prevGen {
				os.Remove(l.ckptPath(gen))
			}
		}
	}
	return nil
}

// writeCheckpoint persists one checkpoint atomically: tmp file, fsync,
// rename into place, directory fsync.
func (l *Log) writeCheckpoint(hdr ckptHeader, recs []Record) error {
	tmp := l.ckptTmpPath()
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("plog: creating checkpoint temp %s: %w", tmp, err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "CKPT %d %d %d %d %d %d\n", ckptVersion, hdr.gen, hdr.watermark, hdr.count, hdr.total, time.Now().UnixNano())
	var buf []byte
	for n := 0; len(recs) > 0; recs = recs[n:] {
		buf, n = appendRun(buf[:0], recs)
		w.Write(buf)
	}
	fmt.Fprintf(w, "END %d\n", hdr.count)
	if err := w.Flush(); err != nil { // a bufio.Writer's first failed write is what Flush reports
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("plog: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("plog: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("plog: closing checkpoint: %w", err)
	}
	final := l.ckptPath(hdr.gen)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("plog: installing checkpoint %s: %w", final, err)
	}
	return l.syncDir()
}

// loadCheckpoint reads and fully validates one checkpoint file, returning
// its RECV runs. Any deviation — bad header, short record list, malformed
// or out-of-order record, missing or mismatched END trailer, trailing
// garbage — rejects the file so recovery falls back to the previous
// generation. Unlike journal replay, which tolerates a torn tail, nothing
// short of the whole file will do, because checkpoints are written atomically.
func (l *Log) loadCheckpoint(path string) (ckptHeader, [][]byte, error) {
	var hdr ckptHeader
	f, err := os.Open(path)
	if err != nil {
		return hdr, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return hdr, nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	line, err := r.ReadString('\n')
	if err != nil {
		return hdr, nil, fmt.Errorf("plog: checkpoint %s: truncated header", path)
	}
	var version int
	if n, err := fmt.Sscanf(strings.TrimSuffix(line, "\n"), "CKPT %d %d %d %d %d",
		&version, &hdr.gen, &hdr.watermark, &hdr.count, &hdr.total); n != 5 || err != nil || version != ckptVersion {
		return hdr, nil, fmt.Errorf("plog: checkpoint %s: bad header %q", path, line)
	}
	if hdr.count < 0 || hdr.total < hdr.count || hdr.count > fi.Size()/2 { // a record is two length bytes at least
		return hdr, nil, fmt.Errorf("plog: checkpoint %s: inconsistent counts", path)
	}
	fr := frameReader{r: r, left: fi.Size() - int64(len(line))}
	var runs [][]byte
	for recs, last := int64(0), int64(0); recs < hdr.count; {
		body, _ := fr.next()
		if body == nil || body[0] != frameRecv {
			return hdr, nil, fmt.Errorf("plog: checkpoint %s: bad frame after record %d", path, recs)
		}
		_, first, n, _, ok := checkRun(body)
		if !ok {
			return hdr, nil, fmt.Errorf("plog: checkpoint %s: malformed run after record %d", path, recs)
		}
		if first <= last || first+int64(n)-1 > hdr.total || recs+int64(n) > hdr.count {
			return hdr, nil, fmt.Errorf("plog: checkpoint %s: record %d out of seq order or beyond the header's count", path, recs)
		}
		runs = append(runs, body)
		fr.buf = nil // the body is the run's: the redo pass copies what it keeps
		recs, last = recs+int64(n), first+int64(n)-1
	}
	line, err = r.ReadString('\n')
	if err != nil {
		return hdr, nil, fmt.Errorf("plog: checkpoint %s: missing END trailer", path)
	}
	var endCount int64
	if n, err := fmt.Sscanf(strings.TrimSuffix(line, "\n"), "END %d", &endCount); n != 1 || err != nil || endCount != hdr.count {
		return hdr, nil, fmt.Errorf("plog: checkpoint %s: bad END trailer %q", path, line)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return hdr, nil, fmt.Errorf("plog: checkpoint %s: trailing garbage", path)
	}
	return hdr, runs, nil
}
