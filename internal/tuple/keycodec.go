package tuple

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Key encoding: an order-preserving byte encoding of one or more values, so
// that bytes.Compare on encoded keys agrees with value-wise comparison. It is
// used for B+tree keys (both clustered and secondary indexes).
//
// Layout per value:
//   - int/date: tag 0x01, then 8 bytes big-endian of the value with the sign
//     bit flipped (so negative numbers sort before positive ones);
//   - string: tag 0x02, then the bytes with 0x00 escaped as 0x00 0xFF,
//     terminated by 0x00 0x00.
//
// Tags keep kinds self-describing for DecodeKey and make accidental
// cross-kind comparisons deterministic.
const (
	keyTagInt    = 0x01
	keyTagString = 0x02
)

// AppendKey appends the order-preserving encoding of v to dst.
func AppendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInt, KindDate:
		dst = append(dst, keyTagInt)
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int)^(1<<63))
	case KindString:
		dst = append(dst, keyTagString)
		for i := 0; i < len(v.Str); i++ {
			b := v.Str[i]
			dst = append(dst, b)
			if b == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		dst = append(dst, 0x00, 0x00)
	default:
		panic(fmt.Sprintf("tuple: cannot key-encode kind %s", v.Kind))
	}
	return dst
}

// KeySize returns len(AppendKey(nil, v)) without encoding v: the tag and 8
// bytes for an INT or DATE; for a VARCHAR the tag, the bytes, one escape
// byte per 0x00 and the 2-byte terminator.
func KeySize(v Value) int {
	switch v.Kind {
	case KindInt, KindDate:
		return 9
	case KindString:
		return 3 + len(v.Str) + strings.Count(v.Str, "\x00")
	}
	panic(fmt.Sprintf("tuple: cannot key-encode kind %s", v.Kind))
}

// EncodeKey returns the order-preserving encoding of a composite key.
func EncodeKey(vals ...Value) []byte {
	var dst []byte
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return dst
}

// DecodeKey parses all values from an encoded composite key. Integer-tagged
// values decode as KindInt; callers that need KindDate must re-tag using the
// schema (the numeric payload is identical).
func DecodeKey(key []byte) ([]Value, error) {
	return DecodeKeyAppend(nil, key)
}

// DecodeKeyAppend parses all values from an encoded composite key, appending
// them to dst and returning the extended slice. Reusing dst's capacity lets
// index-entry iteration decode integer keys without per-entry allocation.
func DecodeKeyAppend(dst []Value, key []byte) ([]Value, error) {
	vals := dst
	rest := key
	for len(rest) > 0 {
		tag := rest[0]
		rest = rest[1:]
		switch tag {
		case keyTagInt:
			if len(rest) < 8 {
				return nil, fmt.Errorf("tuple: truncated int key")
			}
			u := binary.BigEndian.Uint64(rest) ^ (1 << 63)
			vals = append(vals, Int64(int64(u)))
			rest = rest[8:]
		case keyTagString:
			var sb []byte
			for {
				if len(rest) == 0 {
					return nil, fmt.Errorf("tuple: unterminated string key")
				}
				b := rest[0]
				rest = rest[1:]
				if b != 0x00 {
					sb = append(sb, b)
					continue
				}
				if len(rest) == 0 {
					return nil, fmt.Errorf("tuple: truncated string key escape")
				}
				next := rest[0]
				rest = rest[1:]
				if next == 0xFF {
					sb = append(sb, 0x00)
					continue
				}
				if next == 0x00 {
					break
				}
				return nil, fmt.Errorf("tuple: invalid string key escape 0x%02x", next)
			}
			vals = append(vals, Str(string(sb)))
		default:
			return nil, fmt.Errorf("tuple: invalid key tag 0x%02x", tag)
		}
	}
	return vals, nil
}
