package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The binary codec serializes records for the shuffle phases of the
// partitioned and hybrid formulations. The layout per record is
// little-endian: int64 RID, int32 class, then per attribute in schema
// order either int32 (categorical) or float64 bits (continuous). The size
// matches Schema.RecordBytes exactly, so the t_w-per-byte communication
// charge of the cost model is byte-accurate.

// EncodeRows appends the binary encoding of the rows at idx to buf and
// returns the extended buffer.
func EncodeRows(buf []byte, d *Dataset, idx []int32) []byte {
	for _, i := range idx {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.RID[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Class[i]))
		for a := range d.Schema.Attrs {
			if d.Cat[a] != nil {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Cat[a][i]))
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Cont[a][i]))
			}
		}
	}
	return buf
}

// EncodeAll encodes every row of d.
func EncodeAll(buf []byte, d *Dataset) []byte {
	idx := d.AllIndex()
	return EncodeRows(buf, d, idx)
}

// Decode parses buf (a whole number of records under schema s) and appends
// the records to dst, growing each column once for the whole buffer. It
// returns an error if buf is malformed; the records before the first bad
// one stay appended.
func Decode(dst *Dataset, s *Schema, buf []byte) error {
	rb := s.RecordBytes()
	if len(buf)%rb != 0 {
		return fmt.Errorf("dataset: decode buffer of %d bytes is not a multiple of record size %d", len(buf), rb)
	}
	n := len(buf) / rb
	dst.RID = slices.Grow(dst.RID, n)
	dst.Class = slices.Grow(dst.Class, n)
	for a, attr := range s.Attrs {
		if attr.Kind == Categorical {
			dst.Cat[a] = slices.Grow(dst.Cat[a], n)
		} else {
			dst.Cont[a] = slices.Grow(dst.Cont[a], n)
		}
	}
	for off := 0; off < len(buf); off += rb {
		p := buf[off:]
		class := int32(binary.LittleEndian.Uint32(p[8:]))
		if class < 0 || int(class) >= s.NumClasses() {
			return fmt.Errorf("dataset: decode: class code %d out of range", class)
		}
		// Check the whole record before appending any of it.
		q := p[12:]
		for _, attr := range s.Attrs {
			if attr.Kind != Categorical {
				q = q[8:]
				continue
			}
			if v := int32(binary.LittleEndian.Uint32(q)); v < 0 || int(v) >= attr.Cardinality() {
				return fmt.Errorf("dataset: decode: attribute %q value code %d out of range", attr.Name, v)
			}
			q = q[4:]
		}
		dst.RID = append(dst.RID, int64(binary.LittleEndian.Uint64(p)))
		dst.Class = append(dst.Class, class)
		p = p[12:]
		for a, attr := range s.Attrs {
			if attr.Kind == Categorical {
				dst.Cat[a] = append(dst.Cat[a], int32(binary.LittleEndian.Uint32(p)))
				p = p[4:]
			} else {
				dst.Cont[a] = append(dst.Cont[a], math.Float64frombits(binary.LittleEndian.Uint64(p)))
				p = p[8:]
			}
		}
	}
	return nil
}
