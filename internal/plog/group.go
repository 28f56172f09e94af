package plog

import (
	"runtime"
	"time"
)

// groupBatch is one commit: the records staged since the committer last
// took the open batch, written whole (never split across writes) and
// made durable by one fsync. Batch n lives in Log.batches[n%2].
type groupBatch struct {
	buf []byte // encoded RECV runs, in staging order
	// dones holds the seqs of the records marked processed in this batch,
	// in staging order; the committer sorts them and encodes them onto
	// buf as one DONE list, after the runs.
	dones []int64
	lines int64 // records: RECV entries plus DONEs
	// waited counts the records someone will Wait on (RECV, synchronous
	// DONE), plus one for a duplicate append parked on a batch that had
	// none. Zero means async records only: nobody's latency.
	waited int64
	// openedAt is when the batch was opened: doneHold counts from it for
	// a batch nobody waits on, and so does the commit-wait clock — which
	// restarts when a batch of async records gains its first waiter.
	openedAt time.Time
}

// doneHold is how long a backlog nobody waits on (async records only) may
// sit staged before the committer spends an fsync on it alone, counted
// from when its batch opened. It is deliberately not GroupOptions.Window:
// Window prices the latency of records somebody waits for, doneHold the
// width of the "delivered, DONE staged, not durable" replay window at
// idle, and a window-0 log (the outbox) holds its marks just the same.
// The value is the smallest of {2, 10, 25, 50, 100, 250} ms whose
// paced_open fsyncs_per_alert is within 3 % of the 250 ms reading
// (docs/measurements/ISSUE-24.md has the sweep).
const doneHold = 50 * time.Millisecond

// Force-flush thresholds: an open batch holding forceFlushRecords
// records, or forceFlushBytes encoded bytes, commits at once instead of
// waiting out a pace or doneHold. They bound no commit's size — a batch
// that grew past them while the previous fsync ran is written whole.
const (
	forceFlushRecords = 1024
	forceFlushBytes   = 1 << 20
)

// maxRetainedBufBytes caps the buffer a batch struct keeps for its next
// use: a transient spike must not pin its high-water memory forever.
const maxRetainedBufBytes = 1 << 20

// Commit is a pending durability ticket: the number of the batch the
// caller's records were staged into. Batches are numbered from 1 in
// staging order, so durability is one monotone number, the log's
// watermark (ARIES' flushed LSN, at batch grain), and no object lives
// per commit. Batch 0, and the zero Commit, wait for nothing.
type Commit struct {
	l *Log
	n uint64
}

// Wait blocks until the staged records are durable, reporting the
// batch's write error (sticky: it also fails every later append). It
// takes no lock once the watermark has reached the batch. Fail-stop
// keeps the watermark just below a failed batch for good, so a batch
// it has not reached by then is that one or a later one.
func (c Commit) Wait() error {
	if c.l == nil || c.l.durable.Load() >= c.n {
		return nil
	}
	c.l.wmu.Lock()
	defer c.l.wmu.Unlock()
	for c.l.durable.Load() < c.n && c.l.failErr == nil {
		c.l.synced.Wait()
	}
	if c.l.durable.Load() < c.n {
		return c.l.failErr
	}
	return nil
}

// unusableLocked reports why the log accepts no appends: closed, or
// poisoned by an earlier batch-write failure. Caller holds qmu.
func (l *Log) unusableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// joinLocked is the one way staged records reach the committer: buf
// (recvs RECV entries' runs, encoded through l.scratch) and whatever
// stageDone left in doneSeqs join the open batch as a unit — opening
// the next batch number in the struct it takes turns with, if nothing is
// staged yet — and the committer is woken. wait says the caller will
// Wait on the returned Commit; the first waiter to join a backlog of
// async records cuts its lazy pace short (see committer). A no-op append
// (nothing staged: duplicate RECV or repeated DONE) joins the open
// batch, or else gets the newest batch, in flight or already settled —
// the original record is in it or before it; a no-op waiter is a waiter
// all the same. Caller holds qmu.
func (l *Log) joinLocked(buf []byte, recvs int64, wait bool) Commit {
	dones := l.doneSeqs
	l.scratch, l.doneSeqs = buf[:0], dones[:0]
	staged := recvs + int64(len(dones))
	b := l.open
	if b == nil {
		if staged == 0 {
			return Commit{l, l.opened}
		}
		l.opened++
		b = &l.batches[l.opened%2]
		*b = groupBatch{buf: b.buf[:0], dones: b.dones[:0], openedAt: time.Now()}
		l.open = b
	}
	first := wait && b.waited == 0
	if first && b.lines > 0 {
		// Async records opened this batch; the commit-wait clock starts
		// with the first waiter.
		b.openedAt = time.Now()
	}
	if wait {
		b.waited = max(b.waited+staged, 1) // a no-op waiter counts one
	}
	if staged > 0 {
		b.buf = append(b.buf, buf...)
		b.dones = append(b.dones, dones...)
		b.lines += staged
		l.appended.Add(staged)
		l.unflushedDones.Add(int64(len(dones)))
		l.cond.Signal()
	}
	if first || l.overThresholdLocked() {
		l.cutPaceLocked()
	}
	return Commit{l, l.opened}
}

// Flush returns once everything staged so far is durable: a no-op
// waiter on the open batch, or on the one in flight.
func (l *Log) Flush() error {
	l.qmu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.qmu.Unlock()
		return err
	}
	c := l.joinLocked(l.scratch, 0, true)
	l.qmu.Unlock()
	return c.Wait()
}

// cutPaceLocked ends an in-progress commit pace early. The token is
// harmless when the committer is not pacing: waitWindow drops a stale
// one before it parks. Caller holds qmu.
func (l *Log) cutPaceLocked() {
	select {
	case l.flushNow <- struct{}{}:
	default:
	}
}

// overThresholdLocked reports whether the open batch already justifies
// an immediate commit: it has reached forceFlushRecords or
// forceFlushBytes. Caller holds qmu.
func (l *Log) overThresholdLocked() bool {
	b := l.open
	return b != nil && (b.lines >= forceFlushRecords || len(b.buf) >= forceFlushBytes)
}

// committer is the single goroutine that writes batches in order. Each
// cycle takes the open batch whole and writes it with one write and one
// fsync; appends that arrive meanwhile open the next batch, so at most
// two exist — one in flight, one open — and a backlog built up during a
// slow fsync clears in the single follow-up sync, however large it grew.
// Each cycle ends by settling its batch and waking parked waiters.
//
// The commit schedule is adaptive rather than a fixed timer, and it
// serves waiters, not records. A waiter that finds the committer idle
// (no fsync in flight) commits immediately — it had no peers to wait
// for while it staged, so idle admission latency is the fsync itself,
// not the window. Pacing applies only when two or more waited-for
// records are already open at the top of the cycle, i.e. peers staged
// while the previous fsync ran (the two-deep pipeline: batch N+1
// accumulates under fsync N). Such a backlog proves concurrent load, so
// the committer sleeps out the window's remainder to let the batch fill
// — fsyncs land at most one per Window under a sustained stream. The
// shape follows commit_delay/commit_siblings in Postgres: never delay a
// lone committer, only one with company.
//
// Only a waiter schedules an fsync. A backlog of async records alone
// (DONEs, ReplaceAsync units) has none: spending an fsync on it buys
// nobody anything and makes the next burst's RECVs queue behind it, and
// losing it only replays alerts the receiver already dedups. The
// committer holds it, with no fsync in flight, until the first of: a
// waiter joins (it is treated as having found the committer idle, and
// the backlog rides its fsync), the batch crosses a force-flush
// threshold (forceFlushRecords/forceFlushBytes), Checkpoint or Close, or
// doneHold since the batch opened. The hold does not depend on Window;
// the waiters' pace does, and is cut short by the same thresholds and by
// Close. With Window 0 no waiter is ever paced, which is
// fsync-per-append for a lone appender.
//
// A log with a commit window is a shared log — many stagers, this one
// writer — and its committer owns an OS thread. The goroutine spends its
// life blocked in write+fsync; on a thread of its own it leaves every
// other goroutine's thread alone, and the kernel wakes it from the disk
// wait on the CPU it went to sleep on instead of behind whichever busy
// thread the runtime last lent it (measured on a 2-vCPU host with one
// core saturated: fsync p50 1.7 ms → 0.4 ms, DESIGN.md §8). A window-0
// log has one appender blocked on every commit and there can be
// thousands of them (one per buddy), so those stay plain goroutines.
func (l *Log) committer() {
	defer close(l.done)
	if l.opts.Window > 0 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	var lastSync time.Time // completion time of the previous fsync
	for {
		l.qmu.Lock()
		idle := false
		for l.open == nil && !l.closed {
			idle = true // parked: no backlog, no fsync in flight
			l.cond.Wait()
		}
		if l.open == nil {
			l.qmu.Unlock()
			return // closed and drained
		}
		urgent := l.closed || l.overThresholdLocked()
		if !urgent && l.open.waited == 0 {
			if wait := doneHold - time.Since(l.open.openedAt); wait > 0 {
				l.waitWindow(wait)
			}
			idle = true
		}
		if idle && !l.closed {
			// Commit immediately, but yield the processor once first:
			// appenders that are already runnable (woken together with
			// us, or starved while GOMAXPROCS=1 kept them off the core
			// during the last fsync) get to stage into this batch. At
			// true idle nothing is runnable and the yield costs a few
			// microseconds, so idle admission stays sub-window.
			l.qmu.Unlock()
			runtime.Gosched()
			l.qmu.Lock()
		}
		// Pace only waiters with company (two or more records): a lone
		// record that happened to stage while the previous fsync ran has
		// no peers to amortize with, and holding it for the window
		// remainder would put a window-sized tail on otherwise-idle
		// admission latency.
		if w := l.opts.Window; w > 0 && !urgent && !idle && l.open.waited > 1 {
			if wait := w - time.Since(lastSync); wait > 0 {
				l.waitWindow(wait)
			}
		}
		b, n := l.open, l.opened
		l.open = nil
		err := l.failed
		l.qmu.Unlock()

		// Fail-stop: a batch staged while a write failed completes with
		// that write's error and never touches the file — a later write
		// landing past a torn one would be unreachable to recovery anyway.
		if err == nil {
			if len(b.dones) > 0 {
				b.buf = appendDoneList(b.buf, b.dones)
			}
			err = l.appendBatch(b.buf, b.lines)
			l.batchSizes.Observe(b.lines)
		}
		lastSync = time.Now()
		l.unflushedDones.Add(-int64(len(b.dones)))
		if b.waited > 0 {
			l.commitWait.Observe(lastSync.Sub(b.openedAt).Microseconds())
		} else if err == nil {
			l.waiterlessSyncs.Add(1)
		}
		// The struct is the committer's until batch n+2 opens in it,
		// which needs batch n+1 taken first.
		if cap(b.buf) > maxRetainedBufBytes {
			b.buf, b.dones = nil, nil
		}

		// Settle batch n: the watermark moves to it, or it failed (a
		// batch behind a failed one fails with that very error).
		l.wmu.Lock()
		if err == nil {
			l.durable.Store(n)
		}
		l.failErr = err
		l.wmu.Unlock()
		l.synced.Broadcast()
		if err != nil {
			l.qmu.Lock()
			l.failed = err
			l.qmu.Unlock()
		}
	}
}

// waitWindow parks the committer for up to d, waking early when a
// staging path signals a force-flush threshold or a first waiter, or
// Close fires. A stale token is dropped before parking, and the one timer
// is the committer's own: Reset discards whatever an earlier pace left in
// it. Called with qmu held; returns with it re-held.
func (l *Log) waitWindow(d time.Duration) {
	select {
	// Drop a token left for a backlog an earlier cycle already committed:
	// the caller just decided, under this same hold of qmu, that the
	// current backlog does not justify an immediate flush.
	case <-l.flushNow:
	default:
	}
	l.qmu.Unlock()
	if l.paceTimer == nil {
		l.paceTimer = time.NewTimer(d)
	} else {
		l.paceTimer.Reset(d)
	}
	select {
	case <-l.paceTimer.C:
	case <-l.flushNow:
	}
	l.qmu.Lock()
}
