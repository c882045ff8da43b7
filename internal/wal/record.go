package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"fivm/internal/data"
)

// Record framing, shared by segments and checkpoints:
//
//	u32le length  — length of body (type byte + payload)
//	u32le crc32c  — CRC-32 (Castagnoli) of body
//	body          — 1 type byte, then the type-specific payload
//
// Every record's payload begins with its uvarint LSN (log sequence number,
// strictly increasing across the whole log, segments included), so replay
// and checkpoint coverage compare on a single monotonic axis regardless of
// record type.
//
// Batch payload:
//
//	uvarint lsn | uvarint applied | uvarint nUpdates
//	per update: uvarint len(rel) rel | varint mult | uvarint arity |
//	            uvarint nTuples | tuples (data value codec, back to back)
//
// CreateView payload: uvarint lsn | str name | str sql | uvarint workers
// (a shard count earlier versions wrote; written 0, read and ignored) |
// flags byte (bit0 ComposeChains, bit1 CostMaterialize, bit2: written by
// earlier versions, ignored).
// DropView payload: uvarint lsn | str name.

const (
	recBatch      = 1
	recCreateView = 2
	recDropView   = 3
)

// recordOverhead is the framing bytes before the payload: length, CRC, type.
const recordOverhead = 4 + 4 + 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded WAL record, replayed in LSN order during recovery.
// Exactly one of Batch / Create / Drop is meaningful, per Type.
type Record struct {
	LSN  uint64
	Type byte
	// Applied is the DB's applied-batch counter after this batch (recBatch).
	Applied uint64
	Batch   []data.BaseUpdate
	Create  *ViewDef
	Drop    string
}

// ViewDef is the persisted catalog entry of a SQL-defined view: enough to
// re-create it through the ordinary CreateViewSQL path during recovery.
type ViewDef struct {
	Name            string
	SQL             string
	ComposeChains   bool
	CostMaterialize bool
}

// appendFrame wraps body (type byte already included) in the length+CRC
// frame, appending to b.
func appendFrame(b, body []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	b = append(b, hdr[:]...)
	return append(b, body...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeBatchBody appends the recBatch body (type byte + payload) to b.
// Allocation-free in steady state given a reused buffer. Every tuple of an
// update must have the first one's arity (checkArity): the record declares it
// once.
func encodeBatchBody(b []byte, lsn, applied uint64, batch []data.BaseUpdate) []byte {
	b = append(b, recBatch)
	b = binary.AppendUvarint(b, lsn)
	b = binary.AppendUvarint(b, applied)
	b = binary.AppendUvarint(b, uint64(len(batch)))
	for _, u := range batch {
		b = appendString(b, u.Rel)
		mult := u.Mult
		if mult == 0 {
			mult = 1
		}
		b = binary.AppendVarint(b, mult)
		arity := 0
		if len(u.Tuples) > 0 {
			arity = len(u.Tuples[0])
		}
		b = binary.AppendUvarint(b, uint64(arity))
		b = binary.AppendUvarint(b, uint64(len(u.Tuples)))
		for _, t := range u.Tuples {
			for _, v := range t {
				b = data.AppendValue(b, v)
			}
		}
	}
	return b
}

// BatchBytes bounds the bytes batch's updates take in the record
// encodeBatchBody writes for it, which adds its type byte and three uvarints.
func BatchBytes(batch []data.BaseUpdate) int {
	n := 0
	for _, u := range batch {
		n += len(u.Rel) + 4*binary.MaxVarintLen64 // and mult, arity, tuple count
		for _, t := range u.Tuples {
			for _, v := range t {
				n += 1 + binary.MaxVarintLen64 + len(v.AsString()) // a number takes 9
			}
		}
	}
	return n
}

// MaxBatchBytes is the largest BatchBytes whose record stays within the
// log's record bound.
func MaxBatchBytes() int { return maxRecordBytes - 1 - 3*binary.MaxVarintLen64 }

// checkArity rejects a batch the record format cannot frame: an update whose
// tuples disagree with the arity its first one declares would decode as
// garbage, if at all, and tuples of no columns take no bytes a decoder could
// count them by.
func checkArity(batch []data.BaseUpdate) error {
	for _, u := range batch {
		for _, t := range u.Tuples {
			if len(t) != len(u.Tuples[0]) || len(t) == 0 {
				return fmt.Errorf("wal: %q tuple %v does not have the arity %d (at least 1) its update declares", u.Rel, t, len(u.Tuples[0]))
			}
		}
	}
	return nil
}

func encodeCreateViewBody(b []byte, lsn uint64, def ViewDef) []byte {
	b = append(b, recCreateView)
	b = binary.AppendUvarint(b, lsn)
	b = appendString(b, def.Name)
	b = appendString(b, def.SQL)
	b = binary.AppendUvarint(b, 0) // workers, which earlier versions wrote
	var flags byte
	if def.ComposeChains {
		flags |= 1
	}
	if def.CostMaterialize {
		flags |= 2
	}
	return append(b, flags)
}

func encodeDropViewBody(b []byte, lsn uint64, name string) []byte {
	b = append(b, recDropView)
	b = binary.AppendUvarint(b, lsn)
	return appendString(b, name)
}

// recordReader decodes sequential fields from a record payload.
type recordReader struct {
	b  []byte
	at int
}

func (r *recordReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.at:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated uvarint at offset %d", r.at)
	}
	r.at += n
	return v, nil
}

func (r *recordReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.at:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated varint at offset %d", r.at)
	}
	r.at += n
	return v, nil
}

func (r *recordReader) str(a *data.BatchArena) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.at) {
		return "", fmt.Errorf("wal: string of %d bytes with %d remaining", n, len(r.b)-r.at)
	}
	s := a.Name(r.b[r.at : r.at+int(n)])
	r.at += int(n)
	return s, nil
}

// tuple decodes the next len(t) values into t.
func (r *recordReader) tuple(t data.Tuple) error {
	n, err := data.DecodeTuple(t, r.b[r.at:])
	r.at += n
	return err
}

func (r *recordReader) done() error {
	if r.at != len(r.b) {
		return fmt.Errorf("wal: %d trailing bytes in record", len(r.b)-r.at)
	}
	return nil
}

// checkFrame checks the frame at the front of b — a plausible length, all of
// it present, and its CRC — and returns its body and framed length. A frame
// that extends past the end of b (or an incomplete header) reports errTorn
// and a checksum mismatch errBadCRC: the caller decides whether that is a
// legitimate torn tail or mid-log corruption. decodeRecord and walkSegment
// share it.
func checkFrame(b []byte) ([]byte, int, error) {
	if len(b) < 8 {
		return nil, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || int(n) > maxRecordBytes {
		return nil, 0, fmt.Errorf("wal: implausible record length %d", n)
	}
	if uint32(len(b)-8) < n {
		return nil, 0, errTorn
	}
	body := b[8 : 8+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errBadCRC
	}
	return body, 8 + int(n), nil
}

// decodeRecord decodes one framed record from the front of b (checkFrame
// first), returning the record and the total bytes consumed.
//
// A batch record's updates, tuple lists and tuples are taken from a: the
// caller's per-batch arena — recovery's and a follower's, rewound once the
// record is applied — or the heap when a is nil (DecodeFrame, for a caller
// that keeps the record). Either way nothing is allocated on a count the frame
// merely claims: the bytes that remain bound every one (an update takes at
// least 4, a value at least 2).
func decodeRecord(b []byte, a *data.BatchArena) (Record, int, error) {
	body, n, err := checkFrame(b)
	if err != nil {
		return Record{}, 0, err
	}
	rec := Record{Type: body[0]}
	r := recordReader{b: body, at: 1}
	if rec.LSN, err = r.uvarint(); err != nil {
		return Record{}, 0, err
	}
	switch rec.Type {
	case recBatch:
		if rec.Applied, err = r.uvarint(); err != nil {
			return Record{}, 0, err
		}
		nUpd, err := r.uvarint()
		if err != nil {
			return Record{}, 0, err
		}
		if nUpd > uint64(len(r.b)-r.at)/4 {
			return Record{}, 0, fmt.Errorf("wal: implausible update count %d", nUpd)
		}
		rec.Batch = a.Updates(int(nUpd))
		for i := uint64(0); i < nUpd; i++ {
			rel, err := r.str(a)
			if err != nil {
				return Record{}, 0, err
			}
			mult, err := r.varint()
			if err != nil {
				return Record{}, 0, err
			}
			if mult == 0 { // the encoder writes a caller's 0 as the +1 it means
				return Record{}, 0, fmt.Errorf("wal: update %d has multiplicity 0", i)
			}
			arity, err := r.uvarint()
			if err != nil {
				return Record{}, 0, err
			}
			nTup, err := r.uvarint()
			if err != nil {
				return Record{}, 0, err
			}
			// What the encoder writes (checkArity): an arity taken from the
			// first tuple, so none without tuples, and never tuples of none.
			left := uint64(len(r.b) - r.at)
			if (nTup == 0) != (arity == 0) || arity > 1<<16 || nTup > left/max(1, 2*arity) {
				return Record{}, 0, fmt.Errorf("wal: implausible tuple shape %d x %d with %d bytes left", nTup, arity, left)
			}
			tuples := a.Tuples(int(nTup))
			for j := uint64(0); j < nTup; j++ {
				t := a.Tuple(int(arity))
				if err := r.tuple(t); err != nil {
					return Record{}, 0, err
				}
				tuples = append(tuples, t)
			}
			rec.Batch = append(rec.Batch, a.Update(rel, mult, tuples))
		}
	case recCreateView:
		def := &ViewDef{}
		if def.Name, err = r.str(nil); err != nil {
			return Record{}, 0, err
		}
		if def.SQL, err = r.str(nil); err != nil {
			return Record{}, 0, err
		}
		if _, err := r.uvarint(); err != nil { // workers: ignored
			return Record{}, 0, err
		}
		if r.at >= len(r.b) {
			return Record{}, 0, fmt.Errorf("wal: create-view record missing flags")
		}
		flags := r.b[r.at]
		r.at++
		def.ComposeChains = flags&1 != 0
		def.CostMaterialize = flags&2 != 0
		rec.Create = def
	case recDropView:
		if rec.Drop, err = r.str(nil); err != nil {
			return Record{}, 0, err
		}
	default:
		return Record{}, 0, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	if err := r.done(); err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}
