package main

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/types"
)

// liveSet is the benchmark's model of one table: the rows every
// acknowledged statement has left behind, keyed by id, plus the
// reservations that keep the two clients off each other's targets. A
// client reserves a row before it sends a statement that reads or changes
// it and releases it when the statement returns, so an expected result is
// never invalidated by a concurrent write.
type liveSet[T any] struct {
	mu     sync.Mutex
	rows   map[int64]T
	order  []int64 // ids in acknowledgement order; order[head:] may hold deleted ids
	head   int
	busy   map[int64]bool
	nextID int64
}

func newLiveSet[T any]() *liveSet[T] {
	return &liveSet[T]{rows: map[int64]T{}, busy: map[int64]bool{}}
}

// add records an acknowledged insert.
func (l *liveSet[T]) add(id int64, v T) {
	l.rows[id] = v
	l.order = append(l.order, id)
	if id >= l.nextID {
		l.nextID = id + 1
	}
}

// reserveNew hands out the next unused id.
func (l *liveSet[T]) reserveNew() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	l.busy[id] = true
	return id
}

// reserveOldest reserves the earliest-acknowledged live row that no other
// statement holds.
func (l *liveSet[T]) reserveOldest() (int64, T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head < len(l.order) {
		if _, ok := l.rows[l.order[l.head]]; ok {
			break
		}
		l.head++
	}
	if l.head > len(l.order)/2 && l.head > 1024 {
		l.order = append([]int64(nil), l.order[l.head:]...)
		l.head = 0
	}
	for _, id := range l.order[l.head:] {
		if v, ok := l.rows[id]; ok && !l.busy[id] {
			l.busy[id] = true
			return id, v, true
		}
	}
	var zero T
	return 0, zero, false
}

// reserveRandom reserves a uniformly chosen live row that no other
// statement holds.
func (l *liveSet[T]) reserveRandom(rng *rand.Rand) (int64, T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.order) - l.head
	for try := 0; try < 64 && n > 0; try++ {
		id := l.order[l.head+rng.Intn(n)]
		if v, ok := l.rows[id]; ok && !l.busy[id] {
			l.busy[id] = true
			return id, v, true
		}
	}
	var zero T
	return 0, zero, false
}

// release ends a reservation; apply, when non-nil, runs under the lock to
// record the acknowledged effect.
func (l *liveSet[T]) release(id int64, apply func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.busy, id)
	if apply != nil {
		apply()
	}
}

// snapshot returns the live ids in ascending order with their rows.
func (l *liveSet[T]) snapshot() ([]int64, map[int64]T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int64, 0, len(l.rows))
	rows := make(map[int64]T, len(l.rows))
	for id, v := range l.rows {
		ids = append(ids, id)
		rows[id] = v
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, rows
}

// valueBytes is the payload size of row values: what a user stores,
// before any engine encoding.
func valueBytes(vals ...types.Value) int64 {
	var n int64
	for _, v := range vals {
		switch v.Kind() {
		case types.KindNumber:
			n += 8
		case types.KindString:
			n += int64(len(v.Text()))
		}
	}
	return n
}
