package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/hashidx"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// Database persistence. Every piece of state has exactly one durable
// home, and that home is a page:
//
//   - Heaps, B-trees, hash indexes and LOBs are ordinary pages (a LOB's
//     directory is its header page, see loblib).
//   - DDL state — tables, columns, indexes with their root page ids and
//     DistinctKeys statistic, operators, indextypes and object types — is
//     a gob-encoded dictionary image in a chain of pages hanging off the
//     superblock (page 0). Every DDL statement writes a fresh chain inside
//     its own transaction (writeDictionary), so the commit's ordinary
//     page-image sweep logs it, and a rollback points the superblock back
//     at the previous chain.
//   - Derived state — row counts, the numeric ranges of built-in indexes
//     and bitmap-index content — has no durable copy at all: Open rebuilds
//     it with one pass over each table's heap (rebuildDerived).
//
// A WAL commit record is therefore just a transaction id, and a
// checkpoint only flushes pages. Go-registered pieces (functions,
// IndexMethods) are process state: cartridges must be re-registered after
// reopen, exactly like loading a cartridge library at instance startup.
// Indextypes that keep state outside the database (the external R-tree)
// must be rebuilt, which is precisely the paper's §5 caveat about
// external index stores.

var superMagic = [8]byte{'E', 'X', 'D', 'B', 'S', 'N', 'A', 'P'}

const (
	snapPageHeader = 6 // next page id (4) + payload length (2)
	snapPayload    = storage.PageSize - snapPageHeader
)

// snapColumn mirrors catalog.Column for gob.
type snapColumn struct {
	Name     string
	Kind     uint8
	TypeName string
}

type snapTable struct {
	Name     string
	Cols     []snapColumn
	HeapHead storage.PageID
	Hidden   bool
}

type snapIndex struct {
	Name         string
	Table        string
	Column       string
	ColPos       int
	Kind         int
	Unique       bool
	IndexType    string
	Params       string
	DistinctKeys int

	BTreeMeta storage.PageID
	HashDir   storage.PageID
}

type snapBinding struct {
	ArgKinds   []uint8
	ReturnKind uint8
	FuncName   string
}

type snapOperator struct {
	Name        string
	Bindings    []snapBinding
	AncillaryTo string
}

type snapOpSig struct {
	Name     string
	ArgKinds []uint8
}

type snapIndexType struct {
	Name        string
	Ops         []snapOpSig
	MethodsName string
	StatsName   string
}

type snapTypeDesc struct {
	Name      string
	AttrNames []string
	AttrKinds []uint8
}

type snapshot struct {
	Tables     []snapTable
	Indexes    []snapIndex
	Operators  []snapOperator
	IndexTypes []snapIndexType
	TypeDescs  []snapTypeDesc
}

// initSuperblock formats page 0 of a fresh database.
func (db *DB) initSuperblock() error {
	pg, err := db.pager.NewPage()
	if err != nil {
		return err
	}
	if pg.ID != 0 {
		db.pager.Unpin(pg, false)
		return fmt.Errorf("engine: superblock allocated as page %d", pg.ID)
	}
	copy(pg.Data[0:8], superMagic[:])
	binary.BigEndian.PutUint32(pg.Data[8:12], uint32(storage.InvalidPage))
	db.pager.Unpin(pg, true)
	return nil
}

// writeDictionary stores the current dictionary in a fresh page chain and
// points the superblock at it, as part of transaction t (the DDL that
// changed the dictionary). The new pages and the superblock are t's dirty
// pages, so t's commit logs them. The previous chain stays intact until t
// commits: rolling back points the superblock at it again and frees the
// new chain.
func (db *DB) writeDictionary(t *txn.Txn) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(db.buildSnapshot()); err != nil {
		return fmt.Errorf("engine: encode dictionary: %w", err)
	}
	head, pages, err := db.writeChain(buf.Bytes())
	if err != nil {
		return err
	}
	old, err := db.setDictionaryHead(head)
	if err != nil {
		db.freePages(pages)
		return err
	}
	t.Record(txn.UndoFunc(func() error {
		_, err := db.setDictionaryHead(old)
		db.freePages(pages)
		return err
	}))
	_, oldPages, err := db.readChain(old)
	if err != nil {
		return err // the DDL rolls back, restoring the old head
	}
	t.OnCommit(func() { db.freePages(oldPages) })
	return nil
}

// setDictionaryHead points the superblock at a new chain head and returns
// the previous one.
func (db *DB) setDictionaryHead(head storage.PageID) (storage.PageID, error) {
	pg, err := db.pager.Fetch(0)
	if err != nil {
		return storage.InvalidPage, err
	}
	old := storage.PageID(binary.BigEndian.Uint32(pg.Data[8:12]))
	binary.BigEndian.PutUint32(pg.Data[8:12], uint32(head))
	db.pager.Unpin(pg, true)
	return old, nil
}

// writeChain stores data in a chain of fresh pages and returns its head
// and its pages. Pages are filled back to front, so each one's successor
// is known when it is written; an empty image still gets one page.
func (db *DB) writeChain(data []byte) (storage.PageID, []storage.PageID, error) {
	var pages []storage.PageID
	next := storage.InvalidPage
	for start := (len(data) - 1) / snapPayload * snapPayload; ; start -= snapPayload {
		end := min(start+snapPayload, len(data))
		pg, err := db.pager.NewPage()
		if err != nil {
			db.freePages(pages)
			return storage.InvalidPage, nil, err
		}
		binary.BigEndian.PutUint32(pg.Data[0:4], uint32(next))
		binary.BigEndian.PutUint16(pg.Data[4:6], uint16(end-start))
		copy(pg.Data[snapPageHeader:], data[start:end])
		db.pager.Unpin(pg, true)
		pages = append(pages, pg.ID)
		next = pg.ID
		if start == 0 {
			return next, pages, nil
		}
	}
}

// readChain returns the bytes stored in the chain at head and its pages.
func (db *DB) readChain(head storage.PageID) ([]byte, []storage.PageID, error) {
	var data []byte
	var pages []storage.PageID
	for id := head; id != storage.InvalidPage; {
		pg, err := db.pager.Fetch(id)
		if err != nil {
			return nil, nil, err
		}
		n := int(binary.BigEndian.Uint16(pg.Data[4:6]))
		data = append(data, pg.Data[snapPageHeader:snapPageHeader+n]...)
		pages = append(pages, id)
		id = storage.PageID(binary.BigEndian.Uint32(pg.Data[0:4]))
		db.pager.Unpin(pg, false)
	}
	return data, pages, nil
}

func (db *DB) freePages(pages []storage.PageID) {
	for _, id := range pages {
		db.pager.Free(id)
	}
}

func (db *DB) buildSnapshot() snapshot {
	var snap snapshot
	for _, t := range db.cat.Tables() {
		st := snapTable{Name: t.Name, HeapHead: t.Heap.FirstPage(), Hidden: t.Hidden}
		for _, c := range t.Cols {
			st.Cols = append(st.Cols, snapColumn{Name: c.Name, Kind: uint8(c.Kind), TypeName: c.TypeName})
		}
		snap.Tables = append(snap.Tables, st)
		for _, ix := range db.cat.TableIndexes(t.Name) {
			si := snapIndex{
				Name: ix.Name, Table: ix.Table, Column: ix.Column, ColPos: ix.ColPos,
				Kind: int(ix.Kind), Unique: ix.Unique, IndexType: ix.IndexType,
				Params: ix.Params, DistinctKeys: ix.DistinctKeys,
				BTreeMeta: storage.InvalidPage, HashDir: storage.InvalidPage,
			}
			switch ix.Kind {
			case catalog.BTreeIndex:
				si.BTreeMeta = ix.BT.MetaPage()
			case catalog.HashIndex:
				si.HashDir = ix.HX.DirPage()
			}
			snap.Indexes = append(snap.Indexes, si)
		}
	}
	for _, opName := range db.cat.OperatorNames() {
		op, _ := db.cat.Operator(opName)
		so := snapOperator{Name: op.Name, AncillaryTo: op.AncillaryTo}
		for _, b := range op.Bindings {
			sb := snapBinding{ReturnKind: uint8(b.ReturnKind), FuncName: b.FuncName}
			for _, k := range b.ArgKinds {
				sb.ArgKinds = append(sb.ArgKinds, uint8(k))
			}
			so.Bindings = append(so.Bindings, sb)
		}
		snap.Operators = append(snap.Operators, so)
	}
	for _, itName := range db.cat.IndexTypeNames() {
		it, _ := db.cat.IndexType(itName)
		sit := snapIndexType{Name: it.Name, MethodsName: it.MethodsName, StatsName: it.StatsName}
		for _, sig := range it.Ops {
			ss := snapOpSig{Name: sig.Name}
			for _, k := range sig.ArgKinds {
				ss.ArgKinds = append(ss.ArgKinds, uint8(k))
			}
			sit.Ops = append(sit.Ops, ss)
		}
		snap.IndexTypes = append(snap.IndexTypes, sit)
	}
	for _, tdName := range db.cat.TypeDescNames() {
		td, _ := db.cat.TypeDesc(tdName)
		std := snapTypeDesc{Name: td.Name, AttrNames: append([]string(nil), td.AttrNames...)}
		for _, k := range td.AttrKinds {
			std.AttrKinds = append(std.AttrKinds, uint8(k))
		}
		snap.TypeDescs = append(snap.TypeDescs, std)
	}
	return snap
}

// loadDictionary reads the dictionary chain, rebuilds the catalog from it
// and then rebuilds the derived state.
func (db *DB) loadDictionary() error {
	pg, err := db.pager.Fetch(0)
	if err != nil {
		return err
	}
	if !bytes.Equal(pg.Data[0:8], superMagic[:]) {
		db.pager.Unpin(pg, false)
		return fmt.Errorf("engine: not an extdb database (bad superblock magic)")
	}
	head := storage.PageID(binary.BigEndian.Uint32(pg.Data[8:12]))
	db.pager.Unpin(pg, false)
	if head == storage.InvalidPage {
		return nil // empty database
	}
	data, _, err := db.readChain(head)
	if err != nil {
		return err
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("engine: decode dictionary: %w", err)
	}
	if err := db.applySnapshot(snap); err != nil {
		return err
	}
	return db.rebuildDerived()
}

// rebuildDerived recomputes the state that has no durable copy — row
// counts, built-in indexes' numeric ranges and bitmap-index content —
// with one pass over each table's heap.
func (db *DB) rebuildDerived() error {
	for _, t := range db.cat.Tables() {
		if err := scanTable(t, db.cat.TableIndexes(t.Name), nil, true); err != nil {
			return fmt.Errorf("engine: rebuild derived state of %s: %w", t.Name, err)
		}
	}
	return nil
}

func (db *DB) applySnapshot(snap snapshot) error {
	for _, st := range snap.Tables {
		heap, err := storage.OpenHeap(db.pager, st.HeapHead)
		if err != nil {
			return fmt.Errorf("engine: reopen heap of %s: %w", st.Name, err)
		}
		t := &catalog.Table{Name: st.Name, Heap: heap, Hidden: st.Hidden}
		for _, c := range st.Cols {
			t.Cols = append(t.Cols, catalog.Column{Name: c.Name, Kind: types.Kind(c.Kind), TypeName: c.TypeName})
		}
		if err := db.cat.AddTable(t); err != nil {
			return err
		}
	}
	for _, std := range snap.TypeDescs {
		td := &types.TypeDesc{Name: std.Name, AttrNames: std.AttrNames}
		for _, k := range std.AttrKinds {
			td.AttrKinds = append(td.AttrKinds, types.Kind(k))
		}
		if err := db.cat.AddTypeDesc(td); err != nil {
			return err
		}
	}
	for _, so := range snap.Operators {
		op := &catalog.Operator{Name: so.Name, AncillaryTo: so.AncillaryTo}
		for _, sb := range so.Bindings {
			b := catalog.Binding{ReturnKind: types.Kind(sb.ReturnKind), FuncName: sb.FuncName}
			for _, k := range sb.ArgKinds {
				b.ArgKinds = append(b.ArgKinds, types.Kind(k))
			}
			op.Bindings = append(op.Bindings, b)
		}
		if err := db.cat.AddOperator(op); err != nil {
			return err
		}
	}
	for _, sit := range snap.IndexTypes {
		it := &catalog.IndexType{Name: sit.Name, MethodsName: sit.MethodsName, StatsName: sit.StatsName}
		for _, ss := range sit.Ops {
			sig := catalog.OpSig{Name: ss.Name}
			for _, k := range ss.ArgKinds {
				sig.ArgKinds = append(sig.ArgKinds, types.Kind(k))
			}
			it.Ops = append(it.Ops, sig)
		}
		if err := db.cat.AddIndexType(it); err != nil {
			return err
		}
	}
	for _, si := range snap.Indexes {
		ix := &catalog.Index{
			Name: si.Name, Table: si.Table, Column: si.Column, ColPos: si.ColPos,
			Kind: catalog.IndexKind(si.Kind), Unique: si.Unique,
			IndexType: si.IndexType, Params: si.Params, DistinctKeys: si.DistinctKeys,
		}
		var err error
		switch ix.Kind {
		case catalog.BTreeIndex:
			ix.BT, err = btree.Open(db.pager, si.BTreeMeta)
		case catalog.HashIndex:
			ix.HX, err = hashidx.Open(db.pager, si.HashDir)
		case catalog.BitmapIndex:
			ix.BM = bitmapidx.NewIndex()
		}
		if err != nil {
			return fmt.Errorf("engine: reopen index %s: %w", si.Name, err)
		}
		if err := db.cat.AddIndex(ix); err != nil {
			return err
		}
	}
	return nil
}
