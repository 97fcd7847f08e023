// Package loblib implements large objects (LOBs): out-of-line byte
// streams stored in database pages and manipulated through a file-like
// interface (ReadAt / WriteAt / Truncate), which is how the chemistry
// cartridge of the paper migrated its file-based index into the database
// with "minimal changes to the index management software".
//
// The package also provides FileStore, an equivalent store backed by
// operating-system files, so that the E5 experiment can compare the
// paper's "file-based index" against its LOB-based replacement behind one
// interface, and a byte-range lock table implementing the finer-grained
// concurrency control that §5 of the paper proposes for LOB-resident
// index structures.
package loblib

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/storage"
)

// Blob is the file-like handle shared by LOB- and file-backed stores.
type Blob interface {
	io.ReaderAt
	io.WriterAt
	// Length returns the current byte length.
	Length() (int64, error)
	// Truncate sets the length, extending with zeros or discarding data.
	Truncate(size int64) error
}

// Stats counts operations against a store; the E5 benchmark reads these
// to reproduce the paper's "minimizes intermediate write operations"
// claim.
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	// PhysicalWrites counts writes that reached durable media immediately
	// (file stores write through; LOB stores defer to buffer-pool
	// eviction/flush, so this stays low until a checkpoint).
	PhysicalWrites int64
}

// Store is the common interface of LOB and file blob stores.
type Store interface {
	Create() (int64, error)
	Open(id int64) (Blob, error)
	Delete(id int64) error
	Stats() Stats
	ResetStats()
}

// ---------------------------------------------------------------------------
// LOBStore: pager-backed LOBs.

// A LOB's locator is the id of its header page. The header holds the byte
// length and the list of data pages (one chunk per page); a list longer
// than the header's slots continues in a chain of overflow pages. The LOB
// directory is therefore ordinary database pages, logged at commit and
// replayed at recovery like any other page, with no in-memory copy.
//
//	header page:   magic (4) | length (8) | page count (4) | first overflow (4) | page ids
//	overflow page: next overflow (4) | page ids
const (
	lobMagic    = 0x4C4F4248 // "LOBH"
	lobHdrSlots = 20         // offset of the header's page ids
	lobHdrCap   = (storage.PageSize - lobHdrSlots) / 4
	lobOvfSlots = 4 // offset of an overflow page's page ids
	lobOvfCap   = (storage.PageSize - lobOvfSlots) / 4
)

// lobDir is one LOB's decoded directory.
type lobDir struct {
	length   int64
	pages    []storage.PageID
	overflow []storage.PageID // chain holding pages[lobHdrCap:]
}

// LOBStore keeps LOBs in database pages, one chunk per page. All LOB data
// flows through the shared buffer pool, so it participates in the
// engine's caching and deferred write-back exactly as the paper describes.
type LOBStore struct {
	mu    sync.Mutex
	pager *storage.Pager
	stats Stats
	locks *RangeLockTable
}

// NewLOBStore returns a LOB store over the pager.
func NewLOBStore(p *storage.Pager) *LOBStore {
	return &LOBStore{pager: p, locks: NewRangeLockTable()}
}

// Create allocates an empty LOB and returns its locator.
func (s *LOBStore) Create() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.pager.NewPage()
	if err != nil {
		return 0, err
	}
	putEmptyHeader(pg.Data)
	s.pager.Unpin(pg, true)
	return int64(pg.ID), nil
}

// Open returns a handle on the LOB with the given locator.
func (s *LOBStore) Open(id int64) (Blob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.load(id); err != nil {
		return nil, err
	}
	return &lobHandle{store: s, id: id}, nil
}

// Delete frees the LOB's data and overflow pages and retires its locator.
// The header page is cleared but stays allocated: a freed page's frame is
// dropped unwritten, which could leave the old header readable in the
// page file, and a retired header is never handed to another LOB.
func (s *LOBStore) Delete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.load(id)
	if err != nil {
		return err
	}
	for _, pg := range append(d.pages, d.overflow...) {
		s.pager.Free(pg)
	}
	pg, err := s.pager.Fetch(storage.PageID(id))
	if err != nil {
		return err
	}
	clear(pg.Data[:lobHdrSlots])
	s.pager.Unpin(pg, true)
	return nil
}

// Undelete makes a locator retired by Delete an empty LOB again. A
// transaction that deletes a LOB empties it first, so rolling the delete
// back is Undelete followed by the undo of the emptying.
func (s *LOBStore) Undelete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= int64(storage.InvalidPage) {
		return fmt.Errorf("loblib: no LOB with locator %d", id)
	}
	pg, err := s.pager.Fetch(storage.PageID(id))
	if err != nil {
		return err
	}
	putEmptyHeader(pg.Data)
	s.pager.Unpin(pg, true)
	return nil
}

// Stats implements Store.
func (s *LOBStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	// Physical writes for LOB data are whatever the pager wrote back.
	st.PhysicalWrites = s.pager.Stats().Writes
	return st
}

// ResetStats implements Store.
func (s *LOBStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
	s.pager.ResetStats()
}

// Locks exposes the byte-range lock table for LOB-resident index
// structures (§5's proposed concurrency mechanism).
func (s *LOBStore) Locks() *RangeLockTable { return s.locks }

func putEmptyHeader(data []byte) {
	binary.BigEndian.PutUint32(data[0:4], lobMagic)
	binary.BigEndian.PutUint64(data[4:12], 0)
	binary.BigEndian.PutUint32(data[12:16], 0)
	binary.BigEndian.PutUint32(data[16:20], uint32(storage.InvalidPage))
}

// load decodes the directory of LOB id. Callers hold s.mu.
func (s *LOBStore) load(id int64) (*lobDir, error) {
	if id < 0 || id >= int64(storage.InvalidPage) {
		return nil, fmt.Errorf("loblib: no LOB with locator %d", id)
	}
	pg, err := s.pager.Fetch(storage.PageID(id))
	if err != nil {
		return nil, fmt.Errorf("loblib: no LOB with locator %d: %w", id, err)
	}
	if binary.BigEndian.Uint32(pg.Data[0:4]) != lobMagic {
		s.pager.Unpin(pg, false)
		return nil, fmt.Errorf("loblib: no LOB with locator %d", id)
	}
	d := &lobDir{length: int64(binary.BigEndian.Uint64(pg.Data[4:12]))}
	n := int(binary.BigEndian.Uint32(pg.Data[12:16]))
	next := storage.PageID(binary.BigEndian.Uint32(pg.Data[16:20]))
	d.pages = readSlots(make([]storage.PageID, 0, n), pg.Data[lobHdrSlots:], n)
	s.pager.Unpin(pg, false)
	for next != storage.InvalidPage {
		op, err := s.pager.Fetch(next)
		if err != nil {
			return nil, err
		}
		d.overflow = append(d.overflow, next)
		d.pages = readSlots(d.pages, op.Data[lobOvfSlots:], n-len(d.pages))
		next = storage.PageID(binary.BigEndian.Uint32(op.Data[0:4]))
		s.pager.Unpin(op, false)
	}
	if len(d.pages) != n {
		return nil, fmt.Errorf("loblib: LOB %d lists %d of %d pages", id, len(d.pages), n)
	}
	return d, nil
}

// save writes d back to the header of LOB id, growing or shrinking the
// overflow chain to fit the page list. Callers hold s.mu.
func (s *LOBStore) save(id int64, d *lobDir) error {
	need := 0
	if len(d.pages) > lobHdrCap {
		need = (len(d.pages) - lobHdrCap + lobOvfCap - 1) / lobOvfCap
	}
	for len(d.overflow) > need {
		s.pager.Free(d.overflow[len(d.overflow)-1])
		d.overflow = d.overflow[:len(d.overflow)-1]
	}
	for len(d.overflow) < need {
		pg, err := s.pager.NewPage()
		if err != nil {
			return err
		}
		s.pager.Unpin(pg, true)
		d.overflow = append(d.overflow, pg.ID)
	}
	link := func(i int) storage.PageID {
		if i < len(d.overflow) {
			return d.overflow[i]
		}
		return storage.InvalidPage
	}
	pg, err := s.pager.Fetch(storage.PageID(id))
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint64(pg.Data[4:12], uint64(d.length))
	binary.BigEndian.PutUint32(pg.Data[12:16], uint32(len(d.pages)))
	binary.BigEndian.PutUint32(pg.Data[16:20], uint32(link(0)))
	rest := d.pages[writeSlots(pg.Data[lobHdrSlots:], d.pages):]
	s.pager.Unpin(pg, true)
	for i, oid := range d.overflow {
		op, err := s.pager.Fetch(oid)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint32(op.Data[0:4], uint32(link(i+1)))
		rest = rest[writeSlots(op.Data[lobOvfSlots:], rest):]
		s.pager.Unpin(op, true)
	}
	return nil
}

// readSlots appends up to n page ids decoded from src to dst.
func readSlots(dst []storage.PageID, src []byte, n int) []storage.PageID {
	n = min(n, len(src)/4)
	for i := 0; i < n; i++ {
		dst = append(dst, storage.PageID(binary.BigEndian.Uint32(src[4*i:])))
	}
	return dst
}

// writeSlots encodes as many of ids as fit into dst and returns how many.
func writeSlots(dst []byte, ids []storage.PageID) int {
	n := min(len(ids), len(dst)/4)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(dst[4*i:], uint32(ids[i]))
	}
	return n
}

type lobHandle struct {
	store *LOBStore
	id    int64
}

func (h *lobHandle) Length() (int64, error) {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	d, err := h.store.load(h.id)
	if err != nil {
		return 0, err
	}
	return d.length, nil
}

func (h *lobHandle) Truncate(size int64) error {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("loblib: negative truncate size")
	}
	d, err := h.store.load(h.id)
	if err != nil {
		return err
	}
	need := int((size + storage.PageSize - 1) / storage.PageSize)
	for len(d.pages) > need {
		h.store.pager.Free(d.pages[len(d.pages)-1])
		d.pages = d.pages[:len(d.pages)-1]
	}
	for len(d.pages) < need {
		pg, err := h.store.pager.NewPage()
		if err != nil {
			return err
		}
		h.store.pager.Unpin(pg, true)
		d.pages = append(d.pages, pg.ID)
	}
	if size < d.length && size%storage.PageSize != 0 {
		// Zero the tail of the last page beyond the new length.
		pg, err := h.store.pager.Fetch(d.pages[size/storage.PageSize])
		if err != nil {
			return err
		}
		clear(pg.Data[size%storage.PageSize:])
		h.store.pager.Unpin(pg, true)
	}
	d.length = size
	return h.store.save(h.id, d)
}

func (h *lobHandle) ReadAt(p []byte, off int64) (int, error) {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	h.store.stats.ReadOps++
	if off < 0 {
		return 0, fmt.Errorf("loblib: negative offset")
	}
	d, err := h.store.load(h.id)
	if err != nil {
		return 0, err
	}
	if off >= d.length {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && off < d.length {
		inPage := int(off % storage.PageSize)
		pg, err := h.store.pager.Fetch(d.pages[off/storage.PageSize])
		if err != nil {
			return n, err
		}
		avail := storage.PageSize - inPage
		if rem := d.length - off; int64(avail) > rem {
			avail = int(rem)
		}
		c := copy(p[n:], pg.Data[inPage:inPage+avail])
		h.store.pager.Unpin(pg, false)
		n += c
		off += int64(c)
	}
	h.store.stats.BytesRead += int64(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *lobHandle) WriteAt(p []byte, off int64) (int, error) {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	h.store.stats.WriteOps++
	h.store.stats.BytesWritten += int64(len(p))
	d, err := h.store.load(h.id)
	if err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	if end > d.length {
		// Extend the page list (fresh pages are already zeroed, so a
		// write past the end leaves a zero-filled hole).
		for need := int((end + storage.PageSize - 1) / storage.PageSize); len(d.pages) < need; {
			pg, err := h.store.pager.NewPage()
			if err != nil {
				return 0, err
			}
			h.store.pager.Unpin(pg, true)
			d.pages = append(d.pages, pg.ID)
		}
		d.length = end
		if err := h.store.save(h.id, d); err != nil {
			return 0, err
		}
	}
	n := 0
	for n < len(p) {
		pg, err := h.store.pager.Fetch(d.pages[off/storage.PageSize])
		if err != nil {
			return n, err
		}
		c := copy(pg.Data[off%storage.PageSize:], p[n:])
		h.store.pager.Unpin(pg, true)
		n += c
		off += int64(c)
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// FileStore: blobs as operating-system files (the pre-migration world of
// the chemistry cartridge). Writes go straight to the file system — these
// are the "intermediate write operations" the LOB design avoids.

// FileStore keeps each blob in its own file under dir.
type FileStore struct {
	mu     sync.Mutex
	dir    string
	nextID int64
	stats  Stats
	sync   bool // fsync after each write, modelling conservative index code
}

// NewFileStore returns a file-backed blob store rooted at dir. When
// syncEveryWrite is set, every WriteAt is followed by an fsync, the way
// crash-safe file-based index implementations behave.
func NewFileStore(dir string, syncEveryWrite bool) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, nextID: 1, sync: syncEveryWrite}, nil
}

func (s *FileStore) path(id int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("blob-%d.dat", id))
}

// Create implements Store.
func (s *FileStore) Create() (int64, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	f, err := os.Create(s.path(id))
	if err != nil {
		return 0, err
	}
	return id, f.Close()
}

// Open implements Store.
func (s *FileStore) Open(id int64) (Blob, error) {
	f, err := os.OpenFile(s.path(id), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("loblib: %w", err)
	}
	return &fileHandle{store: s, f: f}, nil
}

// Delete implements Store.
func (s *FileStore) Delete(id int64) error {
	return os.Remove(s.path(id))
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *FileStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

type fileHandle struct {
	store *FileStore
	f     *os.File
}

func (h *fileHandle) ReadAt(p []byte, off int64) (int, error) {
	n, err := h.f.ReadAt(p, off)
	h.store.mu.Lock()
	h.store.stats.ReadOps++
	h.store.stats.BytesRead += int64(n)
	h.store.mu.Unlock()
	return n, err
}

func (h *fileHandle) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.f.WriteAt(p, off)
	h.store.mu.Lock()
	h.store.stats.WriteOps++
	h.store.stats.BytesWritten += int64(n)
	h.store.stats.PhysicalWrites++
	h.store.mu.Unlock()
	if err == nil && h.store.sync {
		err = h.f.Sync()
	}
	return n, err
}

func (h *fileHandle) Length() (int64, error) {
	st, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (h *fileHandle) Truncate(size int64) error { return h.f.Truncate(size) }

// Close releases the underlying file (LOB handles need no close).
func (h *fileHandle) Close() error { return h.f.Close() }
