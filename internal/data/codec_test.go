package data

import (
	"bytes"
	"slices"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	tuples := []Tuple{
		Ints(0, 1, -1, 1<<62, -(1 << 62)),
		Floats(0, 3.5, -2.25, 1e300),
		{String(""), String("hello"), String("a\x00b"), Int(7)},
		{Float(-0.0), Int(-9), String("ütf8 ✓")},
	}
	for _, tup := range tuples {
		enc := tup.AppendKey(nil)
		got := make(Tuple, len(tup))
		n, err := DecodeTuple(got, enc)
		if err != nil {
			t.Fatalf("%v: %v", tup, err)
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d bytes", tup, n, len(enc))
		}
		if !slices.Equal(got, tup) {
			t.Errorf("round trip %v -> %v", tup, got)
		}
		// Decoded tuples re-encode to identical bytes (keys survive a
		// persistence round trip bit-exactly).
		if re := got.AppendKey(nil); !bytes.Equal(re, enc) {
			t.Errorf("%v: re-encoded bytes differ", tup)
		}
	}
}

func TestCodecTruncatedAndMalformed(t *testing.T) {
	enc := Tuple{Int(12345), String("abc"), Float(2.5)}.AppendKey(nil)
	// Every proper prefix must fail cleanly, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeTuple(make(Tuple, 3), enc[:cut]); err == nil {
			t.Errorf("prefix of %d bytes decoded without error", cut)
		}
	}
	if _, _, err := DecodeValue([]byte{99, 1, 2}); err == nil {
		t.Error("unknown kind decoded without error")
	}
	// A declared string length beyond the buffer must fail.
	bad := append([]byte{byte(KindString)}, 0xff, 0x01)
	if _, _, err := DecodeValue(bad); err == nil {
		t.Error("oversized string length decoded without error")
	}
}
