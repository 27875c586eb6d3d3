package tuple

import (
	"encoding/binary"
	"fmt"
)

// Encode appends the binary representation of row (under schema s) to dst and
// returns the extended slice. Integers and dates are 8-byte little-endian;
// strings are a 4-byte little-endian length followed by the bytes.
func Encode(dst []byte, s *Schema, row Row) ([]byte, error) {
	if len(row) != s.NumColumns() {
		return nil, fmt.Errorf("tuple: row has %d values, schema has %d columns", len(row), s.NumColumns())
	}
	for i, v := range row {
		col := s.Column(i)
		if v.Kind != col.Kind {
			return nil, fmt.Errorf("tuple: column %s is %s, value is %s", col.Name, col.Kind, v.Kind)
		}
		switch col.Kind {
		case KindInt, KindDate:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
		case KindString:
			if len(v.Str) > 1<<30 {
				return nil, fmt.Errorf("tuple: string in column %s too long (%d bytes)", col.Name, len(v.Str))
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			return nil, fmt.Errorf("tuple: cannot encode kind %s", col.Kind)
		}
	}
	return dst, nil
}

// Decode parses one row (under schema s) from data. The entire slice must be
// consumed; trailing bytes indicate corruption.
func Decode(s *Schema, data []byte) (Row, error) {
	vals, err := DecodeAppend(make([]Value, 0, s.NumColumns()), s, data)
	if err != nil {
		return nil, err
	}
	return Row(vals), nil
}

// DecodeAppend parses one row (under schema s) from data, appending its
// values to dst and returning the extended slice. It is DecodeAppendCols
// with every column wanted.
func DecodeAppend(dst []Value, s *Schema, data []byte) ([]Value, error) {
	return DecodeAppendCols(dst, s, data, AllColumns)
}

// AllColumns is the column mask that selects every column.
const AllColumns = ^uint64(0)

// DecodeAppendCols parses one row (under schema s) from data, appending one
// value per column to dst and returning the extended slice. Bit i of want
// selects column i; columns from the 64th on are always decoded.
//
// Contract: the whole of data must be one well-formed row — exactly the
// cells WellFormed accepts; anything else is an error, never a partial row.
// The whole row is walked and length-checked whatever want is, and a column
// outside want is written as the zero Value of its kind instead of being read.
// Invariants: fixed-width columns decode into dst's spare capacity with no
// allocation; each wanted string column costs one allocation for its payload
// and a pruned one costs none. That per-string cost is why scans judge their
// predicate on the encoded cell first and decode only the rows they keep, and
// of those only the columns the plan reads (see internal/exec/pagevisit.go).
// Fetches — index seeks, intersections, the inner side of index nested loops
// — follow the same rule through catalog.Table.FetchRowAppend: the predicate
// is judged on the fetched cell under the page pin, and a kept row decodes
// only its demanded and predicate columns (see internal/exec/seek.go).
// How it is measured: the repo benchmark's scan_plain, scan_monitored and
// oltp_point allocs_per_query, the RowsDecoded and ValuesDecoded runtime
// counters, which count the rows a query's scans passed to this function and
// the values they materialized, and TestSeekDecodesOnlyDemandedColumns for
// fetches.
func DecodeAppendCols(dst []Value, s *Schema, data []byte, want uint64) ([]Value, error) {
	// All-fixed-width schemas (the common case for scan-heavy workloads)
	// decode without the per-column kind dispatch or length bookkeeping:
	// one size check for the whole row, then straight-line 8-byte reads.
	if s.fixedSize >= 0 {
		if len(data) != s.fixedSize {
			return nil, fmt.Errorf("tuple: fixed-width row is %d bytes, want %d", len(data), s.fixedSize)
		}
		// Extend dst once for the whole row, then write values in place —
		// per-value appends would re-check capacity on every column.
		n := len(s.cols)
		base := len(dst)
		if cap(dst)-base >= n {
			dst = dst[:base+n]
		} else {
			dst = append(dst, make([]Value, n)...)
		}
		for i := range s.cols {
			v := Value{Kind: s.cols[i].Kind}
			if wanted(want, i) {
				v.Int = int64(binary.LittleEndian.Uint64(data[i*8:]))
			}
			dst[base+i] = v
		}
		return dst, nil
	}
	row := dst
	rest := data
	for i, col := range s.cols {
		v := Value{Kind: col.Kind}
		switch col.Kind {
		case KindInt, KindDate:
			if len(rest) < 8 {
				return nil, fmt.Errorf("tuple: truncated %s column %s", col.Kind, col.Name)
			}
			if wanted(want, i) {
				v.Int = int64(binary.LittleEndian.Uint64(rest))
			}
			rest = rest[8:]
		case KindString:
			if len(rest) < 4 {
				return nil, fmt.Errorf("tuple: truncated length of column %s", col.Name)
			}
			n := int(binary.LittleEndian.Uint32(rest))
			rest = rest[4:]
			if len(rest) < n {
				return nil, fmt.Errorf("tuple: truncated string column %s: want %d bytes, have %d", col.Name, n, len(rest))
			}
			if wanted(want, i) {
				v.Str = string(rest[:n])
			}
			rest = rest[n:]
		default:
			return nil, fmt.Errorf("tuple: cannot decode kind %s", col.Kind)
		}
		row = append(row, v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("tuple: %d trailing bytes after row", len(rest))
	}
	return row, nil
}

// wanted reports whether column i is selected by the mask want.
func wanted(want uint64, i int) bool { return i >= 64 || want&(1<<uint(i)) != 0 }

// CountColumns returns how many of s's columns the mask want selects.
func (s *Schema) CountColumns(want uint64) int {
	n := 0
	for i := range s.cols {
		if wanted(want, i) {
			n++
		}
	}
	return n
}

// WellFormed reports whether data is exactly one encoded row under s: the
// length-prefix walk over the columns consumes it with nothing missing and
// nothing left over. It accepts precisely the inputs Decode accepts, without
// materializing a value, so code that reads encoded cells in place checks it
// first and leaves every other cell to Decode, which names the corruption.
func (s *Schema) WellFormed(data []byte) bool {
	if s.fixedSize >= 0 {
		return len(data) == s.fixedSize
	}
	return s.walk(data, len(s.cols)) == len(data)
}

// ColumnOffset returns the byte offset of column ord in data, which must be
// WellFormed. A column at a FixedOffset is there; later ones are reached by
// walking the length prefixes of the strings before them.
func (s *Schema) ColumnOffset(data []byte, ord int) int {
	if off, ok := s.FixedOffset(ord); ok {
		return off
	}
	return s.walk(data, ord)
}

// walk returns the offset at which column upto starts (the row's end for
// upto == NumColumns), or -1 when data is too short to get there.
func (s *Schema) walk(data []byte, upto int) int {
	off := 8 * s.fixedPrefix
	if off > len(data) {
		return -1
	}
	for _, c := range s.cols[s.fixedPrefix:upto] {
		n := uint64(8)
		if c.Kind == KindString {
			if len(data)-off < 4 {
				return -1
			}
			n = uint64(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		if n > uint64(len(data)-off) {
			return -1
		}
		off += int(n)
	}
	return off
}

// EncodedSize returns the number of bytes Encode would produce for row.
func EncodedSize(s *Schema, row Row) int {
	n := 0
	for i := 0; i < s.NumColumns() && i < len(row); i++ {
		switch s.Column(i).Kind {
		case KindInt, KindDate:
			n += 8
		case KindString:
			n += 4 + len(row[i].Str)
		}
	}
	return n
}
