package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/obs"
)

// Write-ahead redo log. The engine's durability story is redo-only,
// physical (page-image) logging with a no-steal buffer pool:
//
//   - While a transaction runs, its changes live only in buffer-pool
//     frames (the pool never evicts dirty frames while a WAL is
//     attached, so uncommitted data cannot reach the page file).
//   - At commit, the full image of every page dirtied since it was last
//     logged is appended to the WAL, followed by a commit record, and
//     the log is fsynced before the commit is acknowledged.
//   - At checkpoint, dirty pages are written to the page file, the file
//     is fsynced, and only then is the WAL truncated.
//
// Recovery replays the log front to back: page images accumulate in a
// pending set and are applied to the page file only when their commit
// record is reached, so a transaction whose commit record never made it
// to disk disappears entirely. Every record carries a CRC32-C checksum
// and a strictly increasing sequence number; the first record that fails
// either check ends replay — a torn append at the log tail (the classic
// power-loss artifact) is thereby ignored rather than misapplied.

// ErrWALTruncated is returned by SyncShared when the records it was asked
// to make durable were cut by TruncateToSynced (another committer's
// append or sync failed first): they can no longer become durable, so
// the commit they belong to must not be acknowledged.
var ErrWALTruncated = errors.New("storage: wal truncated below the sync target")

// WALSink is the append-only byte store underneath the WAL. It is
// deliberately minimal so fault-injection wrappers can model power loss
// (discarding appended-but-unsynced bytes) and torn appends.
type WALSink interface {
	// Append adds p at the current end of the log.
	Append(p []byte) error
	// Sync makes all appended bytes durable.
	Sync() error
	// Contents returns the entire durable+appended log image. It is
	// called once, at recovery, before any Append.
	Contents() ([]byte, error)
	// Truncate discards every byte at offset n and beyond and makes the
	// truncation durable. Recovery uses it to cut a torn tail back to the
	// intact record prefix (so later appends stay readable), and the
	// engine uses it to discard a suspect tail after a failed append or
	// sync (so an unacknowledged commit record can never replay).
	Truncate(n int64) error
	// Reset discards the whole log (after a checkpoint made it
	// redundant) and makes the truncation durable.
	Reset() error
	// Close releases sink resources.
	Close() error
}

// MemWALSink is an in-memory log, used for in-memory databases under
// test harnesses (fault wrappers give it power-loss semantics).
type MemWALSink struct {
	buf []byte
}

// NewMemWALSink returns an empty in-memory WAL sink.
func NewMemWALSink() *MemWALSink { return &MemWALSink{} }

// Append implements WALSink.
func (m *MemWALSink) Append(p []byte) error {
	m.buf = append(m.buf, p...)
	return nil
}

// Sync implements WALSink.
func (m *MemWALSink) Sync() error { return nil }

// Contents implements WALSink.
func (m *MemWALSink) Contents() ([]byte, error) {
	return append([]byte(nil), m.buf...), nil
}

// Truncate implements WALSink.
func (m *MemWALSink) Truncate(n int64) error {
	if n < 0 || n > int64(len(m.buf)) {
		return fmt.Errorf("storage: wal truncate to %d outside log of %d bytes", n, len(m.buf))
	}
	m.buf = m.buf[:n]
	return nil
}

// Reset implements WALSink.
func (m *MemWALSink) Reset() error {
	m.buf = m.buf[:0]
	return nil
}

// Close implements WALSink.
func (m *MemWALSink) Close() error { return nil }

// Record kinds.
const (
	walRecPage   = 1 // payload: page id (4) + page image (PageSize)
	walRecCommit = 2 // payload: txn id (8)
)

// walHeaderSize is the fixed per-record header: payload length (4),
// CRC32-C over kind+seq+payload (4), kind (1), sequence number (8).
const walHeaderSize = 4 + 4 + 1 + 8

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL appends checksummed redo records to a sink, with group commit:
// appends are serialized by the caller (the engine's walMu — the short
// "append mutex" committers hold only while copying their batch into the
// log), while Sync/SyncShared run a leader/follower protocol so that
// concurrent committers share one fsync. Internal cursor state is
// guarded by gmu so the sync path can run concurrently with appends.
type WAL struct {
	sink WALSink

	// gmu guards the log cursor (seq/size), the durability horizon
	// (synced/syncedSeq), and the group-commit epoch state below. It is
	// held only for bookkeeping — never across the sink fsync, which is
	// what lets appenders make progress while a leader's fsync is in
	// flight.
	gmu      sync.Mutex
	syncDone *sync.Cond // broadcast when a sync epoch completes or fails

	// seq/size are the sequence number and byte length of the log
	// including every append so far; synced/syncedSeq are their values at
	// the last successful sync. TruncateToSynced cuts the log back to the
	// synced point after a failed append or sync, so records whose
	// durability is unknown can never be replayed.
	seq       uint64
	size      int64
	synced    int64
	syncedSeq uint64

	// syncing marks a leader's fsync in flight; followers wait on
	// syncDone. syncErr poisons the WAL after a failed sync: every
	// committer in (or after) the failed batch gets the error, because
	// none of their records are known durable. unsyncedCommits counts
	// commit records appended since the last epoch began — the size of
	// the batch the next leader's fsync will cover.
	syncing         bool
	syncErr         error
	unsyncedCommits int64

	// Cumulative log-traffic counters, folded into storage.Stats by
	// AddStats. Atomic (obs.Counter) because snapshots race with the
	// append path: appends run under the engine's walMu, but AddStats is
	// called by any session reading DB.PagerStats or DB.Metrics.
	recs    obs.Counter
	pages   obs.Counter
	commits obs.Counter
	bytes   obs.Counter
	syncs   obs.Counter
	// grouped counts commit records made durable through sync epochs;
	// grouped/syncs is the commits-per-fsync ratio the W1 bench asserts
	// on. groupSizes is the distribution of batch sizes (commit records
	// per fsync epoch).
	grouped    obs.Counter
	groupSizes obs.Histogram

	// waits/flight, when set, receive SyncShared blocked time
	// (WaitWALGroupFsync) and one EvGroupFsync flight event per covering
	// fsync epoch. Written once at wiring time (SetObs), before
	// concurrent use; nil is safe.
	waits  *obs.WaitStats
	flight *obs.FlightRecorder
}

// NewWAL returns a WAL writer over sink, continuing after the given
// sequence number and byte length (both 0 for a fresh or truncated log;
// recovery passes RecoveryInfo.LastSeq and RecoveryInfo.IntactBytes).
func NewWAL(sink WALSink, lastSeq uint64, size int64) *WAL {
	w := &WAL{sink: sink, seq: lastSeq, size: size, synced: size, syncedSeq: lastSeq}
	w.syncDone = sync.NewCond(&w.gmu)
	return w
}

// SetObs routes group-commit blocked time into the engine wait table
// and fsync epochs into the flight recorder. Call once at wiring time,
// before concurrent use.
func (w *WAL) SetObs(waits *obs.WaitStats, flight *obs.FlightRecorder) {
	w.waits = waits
	w.flight = flight
}

func (w *WAL) append(kind byte, payload []byte) error {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	seq := w.seq + 1
	rec := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	rec[8] = kind
	binary.BigEndian.PutUint64(rec[9:17], seq)
	copy(rec[walHeaderSize:], payload)
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], walCRC))
	if err := w.sink.Append(rec); err != nil {
		return err
	}
	w.seq = seq
	w.size += int64(len(rec))
	w.recs.Inc()
	w.bytes.Add(int64(len(rec)))
	return nil
}

// LogSize returns the current log length in bytes — the durability
// target a committer passes to SyncShared after appending its batch.
func (w *WAL) LogSize() int64 {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	return w.size
}

// AddStats folds the WAL's cumulative traffic counters into s, so one
// storage.Stats snapshot covers page and log I/O together.
func (w *WAL) AddStats(s *Stats) {
	s.WALRecords += w.recs.Load()
	s.WALPages += w.pages.Load()
	s.WALCommits += w.commits.Load()
	s.WALBytes += w.bytes.Load()
	s.WALSyncs += w.syncs.Load()
	s.WALGroupedCommits += w.grouped.Load()
}

// ResetStats zeroes the traffic counters (benchmark phases); the log
// itself is untouched.
func (w *WAL) ResetStats() {
	w.recs.Store(0)
	w.pages.Store(0)
	w.commits.Store(0)
	w.bytes.Store(0)
	w.syncs.Store(0)
	w.grouped.Store(0)
	w.groupSizes.Reset()
}

// AppendPage logs the full image of one page.
func (w *WAL) AppendPage(id PageID, data []byte) error {
	payload := make([]byte, 4+PageSize)
	binary.BigEndian.PutUint32(payload[0:4], uint32(id))
	copy(payload[4:], data[:PageSize])
	if err := w.append(walRecPage, payload); err != nil {
		return err
	}
	w.pages.Inc()
	return nil
}

// AppendCommit logs a commit record: the transaction id alone. Every
// piece of state the commit makes durable is in the page images before
// it — the dictionary included, which DDL writes to pages.
func (w *WAL) AppendCommit(txID int64) error {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(txID))
	if err := w.append(walRecCommit, payload); err != nil {
		return err
	}
	w.gmu.Lock()
	w.unsyncedCommits++
	w.gmu.Unlock()
	w.commits.Inc()
	return nil
}

// Sync makes all appended records durable; a commit is acknowledged only
// after its Sync returns. It is the serial entry point to the group
// protocol: equivalent to SyncShared at the current log end.
func (w *WAL) Sync() error {
	w.gmu.Lock()
	target := w.size
	w.gmu.Unlock()
	return w.SyncShared(target)
}

// SyncShared makes the log durable at least up to target (a LogSize
// taken after the caller's batch was appended), sharing fsyncs between
// concurrent committers: the first committer to arrive while no sync is
// in flight becomes the leader and fsyncs everything appended so far;
// committers that arrive during that fsync wait for the epoch to finish
// and usually find their batch already covered (follower path — their
// commit cost no fsync of its own). A failed fsync poisons the whole
// batch: every waiter (and every later caller) gets the error, because
// none of their records are known durable; the engine then marks the
// WAL broken and truncates the suspect tail.
func (w *WAL) SyncShared(target int64) error {
	// The whole call is one WaitWALGroupFsync interval: a leader's time
	// is its fsync, a follower's is the wait for a covering epoch —
	// either way the committer was blocked on log durability.
	aw := w.waits.StartWait(obs.WaitWALGroupFsync)
	defer aw.Done()
	w.gmu.Lock()
	defer w.gmu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.synced >= target {
			return nil // covered by a leader's fsync (or already durable)
		}
		if target > w.size {
			return ErrWALTruncated // the records up to target were cut
		}
		if !w.syncing {
			break // become the leader for the next epoch
		}
		w.syncDone.Wait()
	}
	w.syncing = true
	upTo, upToSeq := w.size, w.seq
	batch := w.unsyncedCommits
	w.unsyncedCommits = 0
	w.gmu.Unlock()
	fsyncStart := time.Now()
	err := w.sink.Sync() // the one shared fsync; no locks held
	fsyncNanos := time.Since(fsyncStart).Nanoseconds()
	w.gmu.Lock()
	w.syncing = false
	if err != nil {
		w.syncErr = err
		w.syncDone.Broadcast()
		return err
	}
	w.synced, w.syncedSeq = upTo, upToSeq
	w.syncs.Inc()
	if batch > 0 {
		w.grouped.Add(batch)
		w.groupSizes.Observe(batch)
		w.flight.Record(obs.EvGroupFsync, batch, fsyncNanos, "")
	}
	w.syncDone.Broadcast()
	return nil
}

// GroupSizes returns the distribution of commit-batch sizes (commit
// records covered per fsync epoch).
func (w *WAL) GroupSizes() obs.HistogramSnapshot { return w.groupSizes.Snapshot() }

// TruncateToSynced discards every byte appended after the last
// successful sync. The engine calls it when an append or sync fails: the
// suspect tail — which may or may not have reached durable media — is
// cut off, so a commit record the client was never acknowledged for
// cannot be replayed as committed after reopening. An in-flight sync
// epoch is waited out first, so the truncation point reflects that
// epoch's outcome (a successful fsync keeps its batch; a failed one
// leaves the horizon where it was and the whole batch is cut).
// Idempotent. Callers must serialize against appends (the engine holds
// walMu).
func (w *WAL) TruncateToSynced() error {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	for w.syncing {
		w.syncDone.Wait()
	}
	if w.size == w.synced {
		return nil
	}
	if err := w.sink.Truncate(w.synced); err != nil {
		return err
	}
	w.size = w.synced
	w.seq = w.syncedSeq
	w.unsyncedCommits = 0
	return nil
}

// Reset truncates the log after a checkpoint made it redundant.
func (w *WAL) Reset() error {
	if err := w.sink.Reset(); err != nil {
		return err
	}
	w.gmu.Lock()
	w.seq, w.syncedSeq = 0, 0
	w.size, w.synced = 0, 0
	w.unsyncedCommits = 0
	w.gmu.Unlock()
	return nil
}

// Close closes the underlying sink.
func (w *WAL) Close() error { return w.sink.Close() }

// RecoveryInfo reports what WAL replay did.
type RecoveryInfo struct {
	// Records is the number of intact records read.
	Records int
	// Commits is the number of commit records applied.
	Commits int
	// PagesApplied counts page images written to the backend.
	PagesApplied int
	// PagesRepaired counts applied pages whose prior backend content
	// differed from the logged image — torn or lost page writes that the
	// replay corrected.
	PagesRepaired int
	// TornTail is true when the log ended in a truncated or
	// checksum-corrupt record (ignored, as designed).
	TornTail bool
	// DiscardedPages counts page images belonging to transactions whose
	// commit record never reached the log (their effects are dropped).
	DiscardedPages int
	// LastSeq is the sequence number of the last intact record; the WAL
	// writer continues after it until the post-recovery checkpoint
	// truncates the log.
	LastSeq uint64
	// IntactBytes is the byte length of the intact record prefix. When a
	// torn tail followed it, replay truncated the sink to this length, so
	// records appended after recovery are contiguous with readable ones
	// and a second replay can reach them.
	IntactBytes int64
}

// ReplayWAL applies every committed page image in the log to the backend.
// The backend is
// synced before return, so a crash during recovery just replays again.
// A torn or corrupt tail ends replay and is truncated off the sink, so
// everything appended afterwards — notably the post-recovery
// checkpoint's records — stays reachable by a later replay.
func ReplayWAL(b Backend, sink WALSink) (RecoveryInfo, error) {
	var info RecoveryInfo
	log, err := sink.Contents()
	if err != nil {
		return info, fmt.Errorf("storage: read wal: %w", err)
	}
	pending := make(map[PageID][]byte)
	pendingOrder := []PageID{}
	off := 0
scan:
	for off < len(log) {
		if len(log)-off < walHeaderSize {
			break
		}
		payloadLen := int(binary.BigEndian.Uint32(log[off : off+4]))
		if len(log)-off-walHeaderSize < payloadLen {
			break
		}
		rec := log[off : off+walHeaderSize+payloadLen]
		wantCRC := binary.BigEndian.Uint32(rec[4:8])
		if crc32.Checksum(rec[8:], walCRC) != wantCRC {
			break
		}
		kind := rec[8]
		seq := binary.BigEndian.Uint64(rec[9:17])
		if seq != info.LastSeq+1 {
			// A stale record from a previous log generation (or garbage
			// that happened to checksum); stop here.
			break
		}
		payload := rec[walHeaderSize:]
		switch kind {
		case walRecPage:
			if payloadLen != 4+PageSize {
				break scan
			}
			id := PageID(binary.BigEndian.Uint32(payload[0:4]))
			if _, ok := pending[id]; !ok {
				pendingOrder = append(pendingOrder, id)
			}
			pending[id] = payload[4 : 4+PageSize]
		case walRecCommit:
			if payloadLen != 8 {
				break scan
			}
			if err := applyPending(b, pending, pendingOrder, &info); err != nil {
				return info, err
			}
			pending = make(map[PageID][]byte)
			pendingOrder = pendingOrder[:0]
			info.Commits++
		default:
			break scan
		}
		info.LastSeq = seq
		info.Records++
		off += walHeaderSize + payloadLen
	}
	info.TornTail = off < len(log)
	info.IntactBytes = int64(off)
	info.DiscardedPages = len(pending)
	if info.TornTail {
		if err := sink.Truncate(info.IntactBytes); err != nil {
			return info, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	if info.PagesApplied > 0 {
		if err := b.Sync(); err != nil {
			return info, fmt.Errorf("storage: sync after wal replay: %w", err)
		}
	}
	return info, nil
}

// applyPending writes one committed batch of page images to the backend,
// extending the page space as needed and counting repairs (pages whose
// on-disk bytes disagreed with the committed image).
func applyPending(b Backend, pending map[PageID][]byte, order []PageID, info *RecoveryInfo) error {
	for _, id := range order {
		img := pending[id]
		for b.NumPages() <= id {
			if _, err := b.Allocate(); err != nil {
				return fmt.Errorf("storage: wal replay allocate to page %d: %w", id, err)
			}
		}
		cur := make([]byte, PageSize)
		if err := b.ReadPage(id, cur); err != nil {
			return fmt.Errorf("storage: wal replay read page %d: %w", id, err)
		}
		if crc32.Checksum(cur, walCRC) != crc32.Checksum(img, walCRC) {
			info.PagesRepaired++
		}
		if err := b.WritePage(id, img); err != nil {
			return fmt.Errorf("storage: wal replay write page %d: %w", id, err)
		}
		info.PagesApplied++
	}
	return nil
}
