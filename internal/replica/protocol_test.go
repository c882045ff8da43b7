package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// frameHeader is a frame header declaring a body of n bytes.
func frameHeader(n uint32) []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, n)
	return hdr
}

// allocatedBy returns the bytes f allocates, the least of five runs: the
// counter is the process's, and goroutines other tests left behind add to it.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestDeclaredLengthIsNotAllocated: a peer that declares a length and then
// closes the stream — a 1 GiB frame, a 4 GiB checkpoint — gets an error, and
// the reader has allocated what arrived plus one read step, under 1 MiB, not
// the length it was told.
func TestDeclaredLengthIsNotAllocated(t *testing.T) {
	var err error
	cut, frame, checkpoint := bytes.NewReader(nil), append(frameHeader(maxFrameBytes), "some of the body"...), make([]byte, 2*readStep)
	if n := allocatedBy(func() { cut.Reset(frame); _, err = readFrame(cut, nil) }); !errors.Is(err, io.ErrUnexpectedEOF) || n >= 1<<20 {
		t.Errorf("a 1 GiB frame cut short: error %v, %d bytes allocated", err, n)
	}
	if n := allocatedBy(func() { cut.Reset(checkpoint); _, err = readBody(cut, nil, math.MaxUint32) }); !errors.Is(err, io.ErrUnexpectedEOF) || n >= 1<<20 {
		t.Errorf("a 4 GiB checkpoint cut short after %d bytes: error %v, %d bytes allocated", len(checkpoint), err, n)
	}
	// What arrives whole is read whole, into the reused buffer when it fits.
	body := bytes.Repeat([]byte("frame body "), readStep/5)
	in := append(frameHeader(uint32(len(body))), body...)
	buf, err := readFrame(bytes.NewReader(in), nil)
	if err != nil || !bytes.Equal(buf, in) {
		t.Fatalf("a %d-byte frame read back as %d bytes, error %v", len(body), len(buf), err)
	}
	again := bytes.NewReader(in)
	if n := allocatedBy(func() { again.Reset(in); buf, err = readFrame(again, buf) }); err != nil || n != 0 || !bytes.Equal(buf, in) {
		t.Errorf("a frame read into a buffer that holds it: error %v, %d bytes allocated", err, n)
	}
}

// FuzzReadFrame reads a handshake and then frames off arbitrary bytes, as a
// follower's stream and a primary's handshake reader do: nothing panics, and
// every frame returned is exactly the header read and the body it declares,
// byte for byte where they stood in the stream.
func FuzzReadFrame(f *testing.F) {
	var hs bytes.Buffer
	if err := writeHandshake(&hs, 42); err != nil {
		f.Fatal(err)
	}
	stream := append(append(hs.Bytes(), frameHeader(3)...), "abc"...)
	stream = append(append(stream, frameHeader(5)...), "hello"...)
	f.Add(stream)
	f.Add(append(hs.Bytes(), frameHeader(maxFrameBytes)...))
	f.Add(append(hs.Bytes(), frameHeader(0)...))
	f.Add([]byte("FIVMREP0"))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		if _, err := readHandshake(r); err != nil && len(in) < 16 {
			return
		}
		var buf []byte
		for {
			at := len(in) - r.Len()
			var err error
			if buf, err = readFrame(r, buf); err != nil {
				return
			}
			if len(buf) < 8 || int(binary.LittleEndian.Uint32(buf)) != len(buf)-8 || !bytes.Equal(buf, in[at:at+len(buf)]) {
				t.Fatalf("frame at %d is %d bytes declaring %d, or not the bytes that stood there", at, len(buf), binary.LittleEndian.Uint32(buf))
			}
		}
	})
}
