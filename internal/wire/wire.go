// Package wire is the bounds-checked little-endian reader the binary
// decoders of untrusted bytes share: level checkpoints, durable
// checkpoint frames and record frames. Every count read from the input
// is checked against the bytes left before it sizes a slice or bounds a
// loop, the first violation latches, and every error wraps a sentinel
// the caller supplies, so each decoder keeps its own errors.Is target.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader reads fields from the front of a byte slice. After the first
// violation every read returns a zero value and Err reports the error.
type Reader struct {
	b        []byte
	off      int
	sentinel error
	err      error
}

// NewReader returns a Reader over b whose errors wrap sentinel.
func NewReader(b []byte, sentinel error) Reader {
	return Reader{b: b, sentinel: sentinel}
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Err returns the latched error, nil while every read has fit.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error if bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", r.sentinel, r.Len())
	}
	return r.err
}

// Bytes returns the next n bytes, aliasing the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.err = fmt.Errorf("%w: %d-byte field at offset %d overruns the %d bytes left", r.sentinel, n, r.off, r.Len())
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Fits returns n if n elements of at least size (>= 1) encoded bytes
// each fit in the unread bytes, and otherwise latches an error and
// returns 0, so no count read from the input can presize a slice or run
// a loop past what the input holds. It divides rather than multiplies,
// so no 64-bit count can wrap.
func (r *Reader) Fits(n uint64, size int, what string) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()/size) {
		r.err = fmt.Errorf("%w: %d %s at offset %d overrun the %d bytes left", r.sentinel, n, what, r.off, r.Len())
		return 0
	}
	return int(n)
}

// Count reads a uint32 element count and checks it with Fits.
func (r *Reader) Count(size int, what string) int {
	return r.Fits(uint64(r.U32()), size, what)
}
