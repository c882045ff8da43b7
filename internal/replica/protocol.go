// Package replica ships WAL records from a durable primary db.DB to
// read-only followers over TCP, epoch by epoch.
//
// Wire protocol (all integers little-endian):
//
//	follower → primary: "FIVMREP1" magic (8 bytes) | u64 lastLSN
//	primary → follower: mode byte
//	    'F': framed WAL records with LSN > lastLSN follow, in order
//	    'C': u32 length | checkpoint file bytes, then framed records
//	         with LSN > checkpoint.LSN follow
//
// The framed records on the wire are byte-for-byte the primary's WAL
// frames — u32 length | u32 crc32c | body — reusing the WAL's record codec
// and CRC as the wire format, so the follower validates integrity with the
// same code path recovery uses, and a durable follower re-logs the exact
// frames it received.
//
// The primary answers 'C' (checkpoint transfer) when the follower's
// lastLSN falls before its retained WAL tail (the records in between were
// pruned by a checkpoint). A mid-stream prune gap closes the connection;
// the follower reconnects, presents its LSN, and the handshake picks
// catch-up or checkpoint transfer again. Streams therefore resume gap-free
// after any disconnect.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

const (
	magic = "FIVMREP1"

	modeFrames     = 'F'
	modeCheckpoint = 'C'

	// maxFrameBytes mirrors the WAL's own record bound.
	maxFrameBytes = 1 << 30

	// readStep is the most readBody grows a buffer by ahead of the bytes that
	// fill it: a length a peer declares and does not send costs about this
	// much, not the length.
	readStep = 64 << 10
)

// writeHandshake sends the follower's resume position.
func writeHandshake(w io.Writer, lastLSN uint64) error {
	var buf [16]byte
	copy(buf[:8], magic)
	binary.LittleEndian.PutUint64(buf[8:], lastLSN)
	_, err := w.Write(buf[:])
	return err
}

// readHandshake validates the magic and returns the follower's position.
func readHandshake(r io.Reader) (lastLSN uint64, err error) {
	var buf [16]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if string(buf[:8]) != magic {
		return 0, fmt.Errorf("replica: bad handshake magic %q", buf[:8])
	}
	return binary.LittleEndian.Uint64(buf[8:]), nil
}

// readFrame reads one framed WAL record (header + body) into buf, growing
// it as the body arrives (readBody), and returns the filled slice.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 8)[:8]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	ln := binary.LittleEndian.Uint32(buf)
	if ln == 0 || ln > maxFrameBytes {
		return buf, fmt.Errorf("replica: implausible frame length %d", ln)
	}
	return readBody(r, buf, int(ln))
}

// readBody appends n bytes read from r to buf. Capacity buf already has is
// filled at once; past it the buffer grows by at most readStep ahead of the
// bytes that arrived, so a length a peer declares is never allocated on its
// word alone. A body cut short is io.ErrUnexpectedEOF.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	for n > 0 {
		step := min(n, max(cap(buf)-len(buf), readStep))
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
		n -= step
	}
	return buf, nil
}

// errStopScan aborts a probe scan after its first frame.
var errStopScan = errors.New("replica: stop scan")
