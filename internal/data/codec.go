package data

import (
	"encoding/binary"
	"fmt"
)

// Binary value/tuple codec for persistence and wire formats (the WAL and
// checkpoint files of internal/wal, and the future epoch-shipping format).
// It is exactly the key encoding of Value.appendKey — self-delimiting,
// order-preserving per kind — so a decoded tuple re-encodes to the identical
// bytes and persisted keys compare like live ones.

// AppendValue appends the self-delimiting binary encoding of v to b. It is
// the same encoding AppendKey uses, exposed for serialization layers that
// need to decode it back (DecodeValue).
func AppendValue(b []byte, v Value) []byte { return v.appendKey(b) }

// DecodeValue decodes one value from the front of b, returning the value and
// the number of bytes consumed. Truncated or malformed input is an error,
// never a panic: persisted bytes may be torn at any offset.
func DecodeValue(b []byte) (Value, int, error) {
	n, err := ValueLen(b)
	if err != nil {
		return Value{}, 0, err
	}
	switch Kind(b[0]) {
	case KindInt:
		return Value{kind: KindInt, num: binary.BigEndian.Uint64(b[1:9]) ^ (1 << 63)}, 9, nil
	case KindFloat:
		return Value{kind: KindFloat, num: binary.BigEndian.Uint64(b[1:9])}, 9, nil
	default:
		_, used := binary.Uvarint(b[1:])
		return Value{kind: KindString, str: string(b[1+used : n])}, n, nil
	}
}

// ValueLen checks the value at the front of b as DecodeValue does and
// returns the bytes it takes, without building it: a string is not copied.
func ValueLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("data: decode value: empty input")
	}
	switch Kind(b[0]) {
	case KindInt, KindFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("data: decode number: %d of 9 bytes", len(b))
		}
		return 9, nil
	case KindString:
		n, used := binary.Uvarint(b[1:])
		if used <= 0 {
			return 0, fmt.Errorf("data: decode string length")
		}
		start := 1 + used
		if n > uint64(len(b)-start) {
			return 0, fmt.Errorf("data: decode string: %d bytes declared, %d available", n, len(b)-start)
		}
		return start + int(n), nil
	default:
		return 0, fmt.Errorf("data: decode value: unknown kind %d", b[0])
	}
}

// DecodeTuple decodes len(t) consecutive values from the front of b into the
// caller's tuple (heap or BatchArena storage) and returns the bytes consumed.
func DecodeTuple(t Tuple, b []byte) (int, error) {
	at := 0
	for i := range t {
		v, n, err := DecodeValue(b[at:])
		if err != nil {
			return 0, fmt.Errorf("data: decode tuple value %d: %w", i, err)
		}
		t[i] = v
		at += n
	}
	return at, nil
}
