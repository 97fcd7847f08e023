package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// fill returns n deterministic bytes seeded by tag.
func fill(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i%13)
	}
	return p
}

func TestSegmentedAppendSpansSegments(t *testing.T) {
	s := NewMemSegmentedSink(16)
	defer s.Close()
	var want []byte
	for i := 0; i < 7; i++ {
		p := fill(byte(i), 11) // never aligned with the 16-byte capacity
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("contents mismatch: got %d bytes want %d", len(got), len(want))
	}
	live, free := s.Segments()
	if wantLive := (len(want) + 15) / 16; live != wantLive || free != 0 {
		t.Fatalf("segments = (%d live, %d free), want (%d, 0)", live, free, wantLive)
	}
}

func TestSegmentedFileReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileSegmentedSink(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(7, 100)
	if err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileSegmentedSink(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened contents mismatch: got %d bytes want %d", len(got), len(want))
	}
	// Appending after reopen continues the same chain.
	more := fill(9, 40)
	if err := s2.Append(more); err != nil {
		t.Fatal(err)
	}
	got, err = s2.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte{}, want...), more...)) {
		t.Fatal("append after reopen lost bytes")
	}
}

func TestSegmentedTruncateRetiresTail(t *testing.T) {
	s := NewMemSegmentedSink(16)
	defer s.Close()
	data := fill(3, 80) // 5 full segments
	if err := s.Append(data); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-segment-2: keep 2 full + 1 partial, retire 2.
	if err := s.Truncate(40); err != nil {
		t.Fatal(err)
	}
	got, err := s.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:40]) {
		t.Fatal("truncated contents mismatch")
	}
	live, free := s.Segments()
	if live != 3 || free != 2 {
		t.Fatalf("segments = (%d live, %d free), want (3, 2)", live, free)
	}
	// Appends resume from the truncation point and recycle freed slots.
	if err := s.Append(fill(5, 50)); err != nil {
		t.Fatal(err)
	}
	live, free = s.Segments()
	if live != 6 || free != 0 {
		t.Fatalf("after regrow: (%d live, %d free), want (6, 0)", live, free)
	}
}

func TestSegmentedTruncateAtBoundary(t *testing.T) {
	s := NewMemSegmentedSink(16)
	defer s.Close()
	data := fill(1, 48)
	if err := s.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(32); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Contents()
	if !bytes.Equal(got, data[:32]) {
		t.Fatal("boundary truncate mismatch")
	}
	if live, free := s.Segments(); live != 2 || free != 1 {
		t.Fatalf("segments = (%d, %d), want (2, 1)", live, free)
	}
	if err := s.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Contents(); len(got) != 0 {
		t.Fatal("truncate(0) left bytes")
	}
}

func TestSegmentedResetRecyclesSlots(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileSegmentedSink(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 5; round++ {
		if err := s.Append(fill(byte(round), 60)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Contents(); len(got) != 0 {
			t.Fatalf("round %d: reset left %d bytes", round, len(got))
		}
	}
	// Steady state reuses slots: the pool never exceeds one round's worth
	// (4 data segments) plus the fresh head.
	live, free := s.Segments()
	if total := live + free; total > 5 {
		t.Fatalf("slot pool grew to %d segments; recycling is broken", total)
	}
}

func TestSegmentedResetSupersedesOldChainOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileSegmentedSink(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	old := fill(2, 60)
	if err := s.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	fresh := fill(8, 10)
	if err := s.Append(fresh); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopen must select the post-Reset epoch even though most of the
	// old chain's segments still hold their old headers and payloads.
	s2, err := OpenFileSegmentedSink(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("reopen selected wrong chain: got %d bytes want %d", len(got), len(fresh))
	}
}

func TestSegmentedOpenIgnoresHeadlessAndTornSegments(t *testing.T) {
	m := &memSegMedium{slots: map[int]*memSegSlot{}}
	s, err := newSegmentedSink(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(fill(4, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the chain head: recovery must treat the whole medium as
	// free segments (empty log), not replay a headless suffix.
	head := m.slots[0]
	head.buf[5] ^= 0xFF // inside the epoch field, breaks the CRC
	s2, err := newSegmentedSink(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Contents(); len(got) != 0 {
		t.Fatalf("torn head: selected %d bytes, want empty log", len(got))
	}
	if live, free := s2.Segments(); live != 0 || free != 3 {
		t.Fatalf("segments = (%d, %d), want (0, 3)", live, free)
	}
}

func TestSegmentedOpenStopsAtShortMidChainSegment(t *testing.T) {
	m := &memSegMedium{slots: map[int]*memSegSlot{}}
	s, err := newSegmentedSink(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(fill(6, 48)); err != nil { // 3 full segments
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Shear bytes off segment 1's payload: the chain must end there, and
	// segment 2 must not be concatenated after a hole.
	m.slots[1].buf = m.slots[1].buf[:segHeaderSize+9]
	s2, err := newSegmentedSink(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.Contents()
	if len(got) != 16+9 {
		t.Fatalf("chain length %d, want %d", len(got), 16+9)
	}
	if live, free := s2.Segments(); live != 2 || free != 1 {
		t.Fatalf("segments = (%d, %d), want (2, 1)", live, free)
	}
}

func TestSegmentedWALIntegration(t *testing.T) {
	// The segmented sink must be a drop-in WALSink: run a WAL
	// append/replay cycle over it, including a mid-stream record that
	// straddles a segment boundary.
	var _ WALSink = (*SegmentedSink)(nil)
	sink := NewMemSegmentedSink(64)
	w := NewWAL(sink, 0, 0)
	b := NewMemBackend()
	ids := make([]PageID, 3)
	for i := range ids {
		id, err := b.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		if err := w.AppendPage(id, fill(byte(i), PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := ReplayWAL(b, sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 1 || info.PagesApplied != len(ids) {
		t.Fatalf("replay = %d commits / %d pages, want 1 / %d", info.Commits, info.PagesApplied, len(ids))
	}
	for i, id := range ids {
		got := make([]byte, PageSize)
		if err := b.ReadPage(id, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(byte(i), PageSize)) {
			t.Fatalf("page %d not recovered", id)
		}
	}
	sink.Close()
}

func TestSegmentedTruncateOutOfRange(t *testing.T) {
	s := NewMemSegmentedSink(16)
	defer s.Close()
	if err := s.Append(fill(0, 10)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{-1, 11} {
		if err := s.Truncate(n); err == nil {
			t.Fatalf("Truncate(%d) succeeded on a 10-byte log", n)
		}
	}
}

func TestSegmentedFileReopenAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileSegmentedSink(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := fill(1, 70)
	if err := s.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(20); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileSegmentedSink(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.Contents()
	if !bytes.Equal(got, data[:20]) {
		t.Fatalf("reopen after truncate: got %d bytes want 20", len(got))
	}
	// The retired segments' headers were invalidated, so they sit on the
	// free list rather than extending the chain.
	if live, free := s2.Segments(); live != 2 || free != 3 {
		t.Fatalf("segments = (%d, %d), want (2, 3)", live, free)
	}
}

func TestSegmentedManyEpochs(t *testing.T) {
	// Epochs must survive many reset cycles with interleaved reopens.
	dir := t.TempDir()
	for round := 0; round < 4; round++ {
		s, err := OpenFileSegmentedSink(dir, 16)
		if err != nil {
			t.Fatal(err)
		}
		want := fill(byte(round), 25)
		if got, _ := s.Contents(); len(got) != 0 && round > 0 {
			t.Fatalf("round %d: reopen saw %d stale bytes", round, len(got))
		}
		if err := s.Append(want); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemSegmentFillAllocation bounds the memory medium's allocation
// when one default-size segment fills with page records: the slot buffer
// must grow geometrically, not be reallocated to the exact new size (and
// the whole prefix copied) on every extending append.
func TestMemSegmentFillAllocation(t *testing.T) {
	s := NewMemSegmentedSink(0)
	defer s.Close()
	rec := fill(3, walHeaderSize+4+PageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := int64(0); n+int64(len(rec)) <= DefaultWALSegmentBytes; n += int64(len(rec)) {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if live, _ := s.Segments(); live != 1 {
		t.Fatalf("records spilled into %d segments, want 1", live)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("filling one %d-byte segment allocated %d MiB, want < 64 MiB",
			DefaultWALSegmentBytes, alloc>>20)
	}
}

func BenchmarkSegmentedAppend(b *testing.B) {
	s := NewMemSegmentedSink(DefaultWALSegmentBytes)
	defer s.Close()
	p := fill(0, 4096)
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(p); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			if err := s.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = fmt.Sprintf
}
