package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: malformed input")

func TestReaderReadsInOrder(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 7)
	b = binary.LittleEndian.AppendUint64(b, 1<<40+3)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = append(b, "hi"...)
	r := NewReader(b, errTest)
	if v := r.U32(); v != 7 {
		t.Fatalf("U32 = %d, want 7", v)
	}
	if v := r.U64(); v != 1<<40+3 {
		t.Fatalf("U64 = %d, want 2^40+3", v)
	}
	if s := string(r.Bytes(r.Count(1, "bytes"))); s != "hi" {
		t.Fatalf("Bytes = %q, want \"hi\"", s)
	}
	if r.Len() != 0 || r.Done() != nil {
		t.Fatalf("Len = %d, Done = %v after reading everything", r.Len(), r.Done())
	}
}

// TestReaderLatches: after the first violation every read returns a zero
// value and the first error stays the reported one.
func TestReaderLatches(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 9)
	b = binary.LittleEndian.AppendUint64(b, 5)
	r := NewReader(b, errTest)
	if r.Bytes(len(b)+1) != nil {
		t.Fatalf("Bytes(%d) of %d is not nil", len(b)+1, len(b))
	}
	first := r.Err()
	if !errors.Is(first, errTest) {
		t.Fatalf("Err = %v, want errTest", first)
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("U32 after the latch = %d, want 0", v)
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("U64 after the latch = %d, want 0", v)
	}
	if v := r.Fits(0, 1, "items"); v != 0 {
		t.Fatalf("Fits after the latch = %d, want 0", v)
	}
	if r.Bytes(0) != nil || r.Len() != len(b) {
		t.Fatalf("a latched reader moved: Len = %d of %d", r.Len(), len(b))
	}
	if r.Err() != first || r.Done() != first {
		t.Fatalf("Err = %v, Done = %v, want the first error %v", r.Err(), r.Done(), first)
	}
}

// TestFitsDoesNotWrap: multiplied by 48, a 64-bit count wraps
// (2^60+1 to 48), so Fits must divide.
func TestFitsDoesNotWrap(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64, 1<<60 + 1} {
		r := NewReader(make([]byte, 96), errTest)
		if got := r.Fits(n, 48, "records"); got != 0 || !errors.Is(r.Err(), errTest) {
			t.Fatalf("Fits(%d, 48) over 96 bytes = %d, err %v; want 0 and errTest", n, got, r.Err())
		}
	}
	r := NewReader(make([]byte, 96), errTest)
	if n := r.Fits(2, 48, "records"); n != 2 || r.Err() != nil {
		t.Fatalf("Fits(2, 48) over 96 bytes = %d, err %v; want 2", n, r.Err())
	}
	if n := r.Fits(3, 48, "records"); n != 0 || r.Err() == nil {
		t.Fatalf("Fits(3, 48) over 96 bytes = %d, err %v; want an error", n, r.Err())
	}
}

func TestCountOverrun(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 3)
	r := NewReader(append(b, make([]byte, 11)...), errTest)
	if n := r.Count(4, "steps"); n != 0 || !errors.Is(r.Err(), errTest) {
		t.Fatalf("Count of 3×4 bytes over 11 = %d, err %v; want 0 and errTest", n, r.Err())
	}
}

func TestBytesNegative(t *testing.T) {
	r := NewReader(make([]byte, 8), errTest)
	if r.Bytes(-1) != nil || !errors.Is(r.Err(), errTest) {
		t.Fatalf("Bytes(-1): err %v, want errTest", r.Err())
	}
}

func TestDoneTrailingBytes(t *testing.T) {
	r := NewReader(make([]byte, 6), errTest)
	r.U32()
	if err := r.Done(); !errors.Is(err, errTest) {
		t.Fatalf("Done with 2 bytes left = %v, want errTest", err)
	}
}
