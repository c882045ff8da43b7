package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"iter"
	"path"
	"sort"
	"strings"
	"time"

	"fivm/internal/data"
)

// Checkpoint files serialize one consistent prefix of the database — the
// base-relation contents at an applied batch boundary plus the persisted
// view catalog — so recovery replays only the WAL tail after the covered
// LSN. Files are named ckpt-%016x.ck (hex LSN), written to a temp name and
// renamed into place, so a checkpoint either exists completely or not at
// all. Layout: 8-byte magic, version byte, 7 reserved bytes, payload,
// trailing u32le CRC-32C of everything before it.
const (
	ckptMagic  = "FIVMCKP1"
	ckptHdrLen = 16

	// ckptFlushBytes is how much encoded checkpoint WriteCheckpoint gathers
	// in the log's buffer between two writes to the file.
	ckptFlushBytes = 64 << 10
)

// BaseTable is one base relation's contents: exactly Len rows with signed
// multiplicities, in encoded-key order so identical states produce identical
// files. All yields them from wherever they live — the live store for the
// writer (data.BaseStore.Rows), the file bytes for a decoded checkpoint, which
// decodes each row into one tuple it reuses — so neither side materializes a
// row.
type BaseTable struct {
	Rel    string
	Schema data.Schema
	Len    int
	All    iter.Seq2[data.Tuple, int64]
}

// Checkpoint is the decoded (or to-be-written) checkpoint state.
type Checkpoint struct {
	// LSN is the last log sequence number the checkpoint covers: recovery
	// replays only records with greater LSNs.
	LSN uint64
	// Applied is the DB's applied-batch counter at the checkpoint.
	Applied uint64
	// Seq is the DB's published epoch sequence at the checkpoint.
	Seq uint64
	// Views is the persisted view catalog, in registration order.
	Views []ViewDef
	// Bases are the base relations, in registration order.
	Bases []BaseTable
}

func ckptFileName(lsn uint64) string { return fmt.Sprintf("ckpt-%016x.ck", lsn) }

// CheckpointStats describes the last checkpoint a Log wrote.
type CheckpointStats struct {
	// LSN is the last log sequence number the checkpoint covers.
	LSN uint64 `json:"lsn"`
	// Rows and Bytes are the base rows serialized and the file's size; Writes
	// the Write calls that carried it.
	Rows   int   `json:"rows"`
	Bytes  int64 `json:"bytes"`
	Writes int   `json:"writes"`
	// Duration is the whole WriteCheckpoint call: log sync, serialization,
	// file sync, publication, rotation and pruning.
	Duration time.Duration `json:"duration_ns"`
}

// ckptWriter streams a checkpoint into its file: encode appends to a buffer
// and, at a row boundary once limit bytes have gathered, flushes — folding
// the buffered bytes into the running CRC-32C and writing them out. The last
// flush carries the checksum.
type ckptWriter struct {
	f     File
	limit int
	crc   uint32
	st    CheckpointStats
}

// flush writes b out (with the checksum of everything so far behind it, when
// it is the last) and returns it emptied.
func (w *ckptWriter) flush(b []byte, last bool) ([]byte, error) {
	w.crc = crc32.Update(w.crc, castagnoli, b)
	if last {
		b = binary.LittleEndian.AppendUint32(b, w.crc)
	}
	_, err := w.f.Write(b)
	w.st.Writes++
	w.st.Bytes += int64(len(b))
	return b[:0], err
}

// encode streams ck through b, which it returns for reuse: header, catalog,
// every base table row by row, and the trailing CRC-32C of everything before
// it. The file is byte for byte what encoding the whole checkpoint into one
// buffer produced.
func (w *ckptWriter) encode(ck *Checkpoint, b []byte) ([]byte, error) {
	var hdr [ckptHdrLen]byte
	copy(hdr[:8], ckptMagic)
	hdr[8] = segVersion
	b = append(b[:0], hdr[:]...)
	b = appendUvarint(b, ck.LSN)
	b = appendUvarint(b, ck.Applied)
	b = appendUvarint(b, ck.Seq)
	b = appendUvarint(b, uint64(len(ck.Views)))
	for _, def := range ck.Views {
		// Reuse the record body encoding (type byte + dummy LSN included)
		// so the two formats cannot drift apart.
		b = appendFrame(b, encodeCreateViewBody(nil, 0, def))
	}
	b = appendUvarint(b, uint64(len(ck.Bases)))
	for i := range ck.Bases {
		t := &ck.Bases[i]
		b = appendString(b, t.Rel)
		b = appendUvarint(b, uint64(len(t.Schema)))
		for _, attr := range t.Schema {
			b = appendString(b, attr)
		}
		b = appendUvarint(b, uint64(t.Len))
		seen := 0
		for row, mult := range t.All {
			b = appendVarint(b, mult)
			for _, v := range row {
				b = data.AppendValue(b, v)
			}
			seen++
			if len(b) >= w.limit {
				var err error
				if b, err = w.flush(b, false); err != nil {
					return b, err
				}
			}
		}
		if seen != t.Len {
			return b, fmt.Errorf("wal: checkpoint table %q announced %d rows and yielded %d", t.Rel, t.Len, seen)
		}
		w.st.Rows += t.Len
	}
	return w.flush(b, true)
}

func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < ckptHdrLen+4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(b))
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	if string(body[:8]) != ckptMagic {
		return nil, fmt.Errorf("wal: bad checkpoint magic %q", body[:8])
	}
	ck := &Checkpoint{}
	r := recordReader{b: body, at: ckptHdrLen}
	var err error
	if ck.LSN, err = r.uvarint(); err != nil {
		return nil, err
	}
	if ck.Applied, err = r.uvarint(); err != nil {
		return nil, err
	}
	if ck.Seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	nViews, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nViews > uint64(len(body)) {
		return nil, fmt.Errorf("wal: implausible view count %d", nViews)
	}
	for i := uint64(0); i < nViews; i++ {
		rec, n, err := decodeRecord(r.b[r.at:], nil)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint view %d: %w", i, err)
		}
		if rec.Type != recCreateView {
			return nil, fmt.Errorf("wal: checkpoint view %d: record type %d", i, rec.Type)
		}
		ck.Views = append(ck.Views, *rec.Create)
		r.at += n
	}
	nRels, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nRels > uint64(len(body)) {
		return nil, fmt.Errorf("wal: implausible relation count %d", nRels)
	}
	for i := uint64(0); i < nRels; i++ {
		var t BaseTable
		if t.Rel, err = r.str(nil); err != nil {
			return nil, err
		}
		arity, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if arity > uint64(len(body)-r.at) { // an attribute name takes a byte at least
			return nil, fmt.Errorf("wal: implausible arity %d", arity)
		}
		t.Schema = make(data.Schema, arity)
		for j := range t.Schema {
			if t.Schema[j], err = r.str(nil); err != nil {
				return nil, err
			}
		}
		nRows, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nRows > uint64(len(body)-r.at)/(1+2*arity) { // a multiplicity byte and two per value at least
			return nil, fmt.Errorf("wal: implausible row count %d", nRows)
		}
		// Every row is checked here and built only when All yields it.
		rows := r.at
		for j := uint64(0); j < nRows; j++ {
			if _, err := r.varint(); err != nil {
				return nil, err
			}
			for range arity {
				n, err := data.ValueLen(r.b[r.at:])
				if err != nil {
					return nil, err
				}
				r.at += n
			}
		}
		t.Len, t.All = int(nRows), decodedRows(r.b[rows:r.at], len(t.Schema))
		ck.Bases = append(ck.Bases, t)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// decodedRows yields the rows of checked table bytes b, each decoded into the
// one tuple of arity cells it reuses; a string cell is a fresh string.
func decodedRows(b []byte, arity int) iter.Seq2[data.Tuple, int64] {
	return func(yield func(data.Tuple, int64) bool) {
		r := recordReader{b: b}
		row := make(data.Tuple, arity)
		for r.at < len(b) {
			m, _ := r.varint()
			if r.tuple(row) != nil || !yield(row, m) {
				return
			}
		}
	}
}

// WriteCheckpoint persists ck (stamping it with the log's current LSN),
// streaming it through the log's buffer into a temp file published by
// rename — a torn temp file is never read as a checkpoint — then rotates to
// a fresh segment and prunes everything the checkpoint makes redundant: older
// segments and older checkpoints. The log must be healthy.
func (l *Log) WriteCheckpoint(ck *Checkpoint) error {
	if err := l.usable(); err != nil {
		return err
	}
	start := l.opts.now()
	ck.LSN = l.lsn
	// Everything covered must be durable before the checkpoint claims it.
	if err := l.Sync(); err != nil {
		return err
	}

	tmp := path.Join(l.dir, "ckpt.tmp")
	f, err := l.opts.FS.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	w := ckptWriter{f: f, limit: l.ckptFlush, st: CheckpointStats{LSN: ck.LSN}}
	if cap(l.ckptBuf) < l.ckptFlush { // once, with room for the row that crosses the limit, not by doubling up to it
		l.ckptBuf = make([]byte, 0, l.ckptFlush+l.ckptFlush/8)
	}
	if l.ckptBuf, err = w.encode(ck, l.ckptBuf); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	final := path.Join(l.dir, ckptFileName(ck.LSN))
	if err := l.opts.FS.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}

	// Start a fresh segment so every earlier one holds only covered
	// records, then prune them along with superseded checkpoints.
	if err := l.rotate(); err != nil {
		return l.fail(err)
	}
	l.prune(ck.LSN)
	w.st.Duration = l.opts.now().Sub(start)
	l.lastCkpt = w.st
	return nil
}

// LastCheckpoint reports the last checkpoint this Log wrote (zero: none
// since Open). Same goroutine as WriteCheckpoint.
func (l *Log) LastCheckpoint() CheckpointStats { return l.lastCkpt }

// prune removes segments older than the current one and checkpoints older
// than the one covering lsn. Best-effort: pruning failures leave garbage,
// not incorrectness.
func (l *Log) prune(lsn uint64) {
	names, err := l.opts.FS.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg"):
			if seq, ok := parseSegName(n); ok && seq < l.segSeq {
				_ = l.opts.FS.Remove(path.Join(l.dir, n))
			}
		case strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ck"):
			if ckLSN, ok := parseCkptName(n); ok && ckLSN < lsn {
				_ = l.opts.FS.Remove(path.Join(l.dir, n))
			}
		}
	}
}

func parseCkptName(name string) (uint64, bool) {
	var lsn uint64
	if _, err := fmt.Sscanf(name, "ckpt-%x.ck", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// loadLatestCheckpoint returns the newest readable checkpoint among names
// (nil if none exists). Unreadable or corrupt candidates are skipped in
// favor of older ones — a torn temp file must never block recovery.
func loadLatestCheckpoint(fs VFS, dir string, names []string) (*Checkpoint, error) {
	var cks []string
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ck") {
			cks = append(cks, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(cks)))
	for _, n := range cks {
		b, err := fs.ReadFile(path.Join(dir, n))
		if err != nil {
			continue
		}
		ck, err := decodeCheckpoint(b)
		if err != nil {
			continue
		}
		return ck, nil
	}
	return nil, nil
}
