package engine

import (
	"errors"
	"sync/atomic"

	"repro/internal/obs"
)

// checkpointer moves checkpointing off the commit path: a single
// background goroutine owns the "is it time yet" policy and calls the
// same DB.Checkpoint every caller uses, so the admission-map refusal
// rules are enforced for it exactly as for a foreground caller.
//
// It is edge-triggered, not polled. Write-admission releases (every
// logged commit's writer releases admission right after it) and buffer-
// pool backpressure poke the trigger channel (non-blocking, capacity 1 —
// pokes coalesce); on each wake it re-evaluates the thresholds and
// checkpoints while one is exceeded. A checkpoint refused because a
// writer is admitted (ErrTxnOpen) is counted as a skip and simply waits
// for the next poke — the open writer's own admission release is a
// guaranteed future poke, so no timer is needed and an idle database
// runs no code.
//
// Close drains it deterministically: stopCheckpointer closes stop and
// waits for done, after which no background checkpoint can be in flight
// and Close's own foreground checkpoint proceeds as before.
type checkpointer struct {
	db *DB

	// Thresholds: a checkpoint is due when the WAL has grown past
	// walBytes or the pool holds at least dirtyPages dirty frames.
	walBytes   int64
	dirtyPages int64

	// forced is set by backpressure (an all-dirty shard had to grow the
	// pool): the next evaluation is due regardless of thresholds.
	forced atomic.Bool

	trigger chan struct{}
	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool

	checkpoints obs.Counter // background checkpoints completed
	skips       obs.Counter // attempts refused (writer admitted) or failed
}

// DefaultCheckpointWALBytes is the WAL-growth threshold past which the
// background checkpointer runs (64 MiB).
const DefaultCheckpointWALBytes = 64 << 20

// defaultCheckpointDirtyPages derives the dirty-page watermark from the
// pool capacity: three quarters of the cache (the no-steal pool must
// checkpoint before every frame is dirty), floored so tiny test caches
// do not checkpoint on every commit.
func defaultCheckpointDirtyPages(cachePages int) int64 {
	n := int64(cachePages) * 3 / 4
	if n < 1024 {
		n = 1024
	}
	return n
}

func newCheckpointer(db *DB, walBytes, dirtyPages int64) *checkpointer {
	c := &checkpointer{
		db:         db,
		walBytes:   walBytes,
		dirtyPages: dirtyPages,
		trigger:    make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go c.run()
	return c
}

// poke wakes the checkpointer to re-evaluate its thresholds. force
// additionally marks the next evaluation as due unconditionally (buffer-
// pool backpressure). Never blocks; safe from any goroutine, including
// under pager shard latches.
func (c *checkpointer) poke(force bool) {
	if force {
		c.forced.Store(true)
	}
	select {
	case c.trigger <- struct{}{}:
	default: // a wake is already pending; it will see the new state
	}
}

// due reports whether a checkpoint should run now, consuming a forced
// flag if one is set.
func (c *checkpointer) due() bool {
	if c.forced.Swap(false) {
		return true
	}
	if c.db.wal.LogSize() >= c.walBytes {
		return true
	}
	return c.db.pager.DirtyCount() >= c.dirtyPages
}

func (c *checkpointer) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.trigger:
		}
		for c.due() {
			err := c.db.Checkpoint()
			if err == nil {
				c.checkpoints.Inc()
				continue // re-check: commits may have landed meanwhile
			}
			c.skips.Inc()
			if errors.Is(err, ErrTxnOpen) {
				// An admitted writer blocked us. Its commit (or rollback's
				// following commit traffic) pokes again; restore the forced
				// flag so a backpressure-driven attempt is not lost.
				c.forced.Store(true)
			}
			// Any error ends this wake: ErrWALBroken and I/O errors are
			// surfaced by the foreground paths that caused them.
			break
		}
	}
}

// startCheckpointer wires and starts the background checkpointer unless
// options disable it.
func (db *DB) startCheckpointer(opts Options, cachePages int) {
	if opts.DisableBackgroundCheckpointer {
		return
	}
	walBytes := opts.CheckpointWALBytes
	if walBytes <= 0 {
		walBytes = DefaultCheckpointWALBytes
	}
	dirty := opts.CheckpointDirtyPages
	if dirty <= 0 {
		dirty = defaultCheckpointDirtyPages(cachePages)
	}
	db.ckpt = newCheckpointer(db, walBytes, dirty)
	// An all-dirty shard that had to grow past its frame target forces a
	// checkpoint: cleaning pages is the only way the no-steal pool can
	// shrink back to target.
	db.pager.SetPressure(func() { db.ckpt.poke(true) })
}

// stopCheckpointer drains the background checkpointer: after it returns,
// no background checkpoint is running or can start. Idempotent. The ckpt
// pointer stays set so a late poke from a straggling commit is a no-op
// channel nudge rather than a nil dereference.
func (db *DB) stopCheckpointer() {
	c := db.ckpt
	if c == nil || !c.stopped.CompareAndSwap(false, true) {
		return
	}
	close(c.stop)
	<-c.done
}
