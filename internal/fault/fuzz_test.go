package fault

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// overrunFrame is a CRC-valid frame whose payload claims 2^19
// participants (under the maxFrameParts cap) and carries none of them.
func overrunFrame() []byte {
	pay := binary.LittleEndian.AppendUint64(nil, 7)    // seq
	pay = binary.LittleEndian.AppendUint32(pay, 0)     // ID bytes
	pay = binary.LittleEndian.AppendUint32(pay, 0)     // rank
	pay = binary.LittleEndian.AppendUint32(pay, 1<<19) // participants
	pay = binary.LittleEndian.AppendUint32(pay, 0)     // meta bytes
	pay = binary.LittleEndian.AppendUint32(pay, 0)     // data bytes
	b := []byte(frameMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pay)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(pay, castagnoli))
	return append(b, pay...)
}

// decodeFrameAlloc decodes one frame from b and returns the bytes the
// decode allocated.
func decodeFrameAlloc(b []byte) (*Checkpoint, int, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp, n, err := decodeFrame(b)
	runtime.ReadMemStats(&after)
	return cp, n, after.TotalAlloc - before.TotalAlloc, err
}

// frameAllocBound is what decoding n frame bytes may allocate: the
// participant count is checked against the bytes left, so the decoded
// checkpoint stays a small multiple of n.
func frameAllocBound(n int) uint64 { return 32*uint64(n) + 1<<20 }

// TestDecodeFrameParticipantOverrun: a participant count the payload
// cannot hold is ErrBadFrame even though the CRC passes, and nothing is
// sized from it.
func TestDecodeFrameParticipantOverrun(t *testing.T) {
	b := overrunFrame()
	cp, _, alloc, err := decodeFrameAlloc(b)
	if !errors.Is(err, ErrBadFrame) || cp != nil {
		t.Fatalf("cp = %v, err = %v, want ErrBadFrame", cp, err)
	}
	if alloc > frameAllocBound(len(b)) {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(b), alloc)
	}
}

// FuzzReadCheckpoint feeds hostile bytes to every decoder a reopened
// DiskStore runs untrusted input through — frame, chain and manifest —
// and asserts the contract the recovery path depends on: decoding never
// panics, failures are typed errors, and anything a decoder accepts
// re-encodes to the identical frame (so a reloaded chain cannot drift).
// No frame may make decodeFrame allocate more than a small multiple of
// its own size.
func FuzzReadCheckpoint(f *testing.F) {
	good := encodeFrame(&Checkpoint{
		ID:           "level:w:3",
		Rank:         2,
		Participants: []int{0, 1, 2, 3},
		Meta:         "level 3: 4 items, 1000 rows",
		Data:         []byte("payload-bytes"),
		seq:          7,
	})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good...)) // two-frame chain
	f.Add(good[:len(good)/2])                         // torn frame
	f.Add([]byte("PTCK"))                             // header cut short
	f.Add([]byte("NOPE1234567890"))                   // bad magic
	f.Add([]byte(`{"format":"partree-checkpoint-manifest","version":1,"chains":{"0":{"bytes":12,"frames":1}}}`))
	f.Add([]byte{})
	corrupt := append([]byte{}, good...)
	corrupt[len(corrupt)-1] ^= 0x40 // payload bit flip: CRC must catch it
	f.Add(corrupt)
	f.Add(overrunFrame())

	f.Fuzz(func(t *testing.T, b []byte) {
		cp, n, alloc, err := decodeFrameAlloc(b)
		if alloc > frameAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), alloc)
		}
		if err == nil {
			if cp == nil || n <= 0 || n > len(b) {
				t.Fatalf("decodeFrame accepted %d bytes with cp=%v n=%d", len(b), cp, n)
			}
			if re := encodeFrame(cp); !bytes.Equal(re, b[:n]) {
				t.Fatalf("round-trip drift: decoded frame re-encodes to %d bytes != input %d", len(re), n)
			}
		} else if cp != nil {
			t.Fatal("decodeFrame returned both a checkpoint and an error")
		}

		cps, good, err := decodeChain(b)
		if int(good) > len(b) {
			t.Fatalf("decodeChain good prefix %d exceeds input %d", good, len(b))
		}
		if err == nil && int(good) != len(b) {
			t.Fatalf("decodeChain reported success but consumed %d of %d bytes", good, len(b))
		}
		for _, cp := range cps {
			if cp == nil {
				t.Fatal("decodeChain returned a nil checkpoint")
			}
		}

		if m, err := decodeManifest(b); err == nil {
			for key, mark := range m.Chains {
				if mark == nil || mark.Bytes < 0 || mark.Frames < 0 {
					t.Fatalf("decodeManifest accepted invalid mark %v for %q", mark, key)
				}
			}
		}
	})
}
