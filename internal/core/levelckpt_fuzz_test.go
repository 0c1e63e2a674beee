package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"partree/internal/dataset"
	"partree/internal/tree"
)

// levelCkptSeeds returns encoder output for an exact level (a one-level
// partial tree whose children hold the rows) and for the same level with
// vote families, and the schema of their rows.
func levelCkptSeeds(t testing.TB) (exact, voted []byte, s *dataset.Schema) {
	d := genDiscrete(t, 300, 2, 5)
	o := Options{Tree: tree.Options{Binary: true, MaxDepth: 1}}
	root := tree.BuildBFS(d, o.SerialOptions(d)).Root
	var frontier []tree.FrontierItem
	for _, ch := range root.Children {
		if ch != nil {
			frontier = append(frontier, tree.FrontierItem{Node: ch})
		}
	}
	if len(frontier) == 0 {
		t.Fatal("the root did not split")
	}
	for i, r := range d.AllIndex() {
		it := &frontier[i%len(frontier)]
		it.Idx = append(it.Idx, r)
		it.GlobalN++
	}
	ranges := [][2]float64{{0, 1}, {-2.5, 7.25}}
	exact = encodeLevelCkpt(d, root, frontier, 1, 3, ranges, nil)
	voted = encodeLevelCkpt(d, root, frontier, 1, 3, ranges, []voteFam{
		{lo: 0, n: 1, root: true},
		{lo: 1, n: len(frontier) - 1, pAttrs: []int32{0, 2, 5}},
	})
	return exact, voted, d.Schema
}

// tamperedLevelCkpt is a 40-byte version-2 checkpoint with empty
// sections up to a vote-family count of 2^24 and no family behind it.
func tamperedLevelCkpt() []byte {
	b := []byte(levelCkptMagic)
	b = binary.LittleEndian.AppendUint32(b, 2)     // version
	b = binary.LittleEndian.AppendUint32(b, 0)     // level
	b = binary.LittleEndian.AppendUint64(b, 0)     // idsNext
	b = binary.LittleEndian.AppendUint32(b, 0)     // ranges
	b = binary.LittleEndian.AppendUint32(b, 0)     // tree JSON bytes
	b = binary.LittleEndian.AppendUint32(b, 0)     // frontier items
	b = binary.LittleEndian.AppendUint32(b, 0)     // row bytes
	b = binary.LittleEndian.AppendUint32(b, 1<<24) // vote families
	return b
}

// overflowFrame is one record frame of key 0 that claims 2^60+1 records
// and carries one: at a 48-byte record, count·48 wraps to 48.
func overflowFrame(s *dataset.Schema) []byte {
	d := dataset.New(s, 1)
	d.Append(dataset.NewRecord(s))
	b := binary.LittleEndian.AppendUint64(nil, 0)
	b = binary.LittleEndian.AppendUint64(b, 1<<60+1)
	return dataset.EncodeRows(b, d, []int32{0})
}

// overflowLevelCkpt is the exact level seed with its rows section
// replaced by overflowFrame: the checkpoint decodes, its rows must not.
func overflowLevelCkpt(t testing.TB) []byte {
	exact, _, s := levelCkptSeeds(t)
	lk, err := decodeLevelCkpt(exact)
	if err != nil {
		t.Fatal(err)
	}
	// The exact seed ends with its rows (length-prefixed) and a zero
	// vote-family count.
	b := append([]byte(nil), exact[:len(exact)-len(lk.rows)-8]...)
	frame := overflowFrame(s)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(frame)))
	b = append(b, frame...)
	return binary.LittleEndian.AppendUint32(b, 0)
}

// TestDecodeFramesCountOverflow: a frame whose record count wraps when
// multiplied by the record size is a typed error, not a frame of the
// wrong length; the same holds through a level checkpoint's rows.
func TestDecodeFramesCountOverflow(t *testing.T) {
	_, _, s := levelCkptSeeds(t)
	if rb := s.RecordBytes(); rb != 48 {
		t.Fatalf("schema records are %d bytes, the wrap needs 48", rb)
	}
	out := dataset.New(s, 0)
	err := decodeFrames(out, make([][]int32, 1), s, overflowFrame(s))
	if !errors.Is(err, errFrame) {
		t.Fatalf("err = %v after decoding %d rows, want errFrame", err, out.Len())
	}
	if out.Len() != 0 {
		t.Fatalf("decoded %d rows from a rejected frame", out.Len())
	}
	b := overflowLevelCkpt(t)
	lk, err := decodeLevelCkpt(b)
	if err != nil {
		t.Fatal(err)
	}
	err = adoptLevelRows(dataset.New(s, 0), make([]tree.FrontierItem, len(lk.items)), b)
	if !errors.Is(err, errFrame) {
		t.Fatalf("adopting the checkpoint's rows: err = %v, want errFrame", err)
	}
}

// decodeLevelCkptAlloc decodes b and returns the bytes the decode
// allocated.
func decodeLevelCkptAlloc(b []byte) (*levelCkpt, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lk, err := decodeLevelCkpt(b)
	runtime.ReadMemStats(&after)
	return lk, after.TotalAlloc - before.TotalAlloc, err
}

// decodeAllocBound is what decoding n bytes of a level checkpoint or of
// record frames may allocate: every count is checked against the bytes
// left at its element's minimum encoded size, so the decoded slices stay
// a small multiple of n.
func decodeAllocBound(n int) uint64 { return 32*uint64(n) + 1<<20 }

// TestDecodeLevelCkptTamperedCount: a count the payload cannot hold is a
// typed error before anything is presized from it. The 40-byte case once
// allocated 805 MB of vote families before reporting the truncation.
func TestDecodeLevelCkptTamperedCount(t *testing.T) {
	b := tamperedLevelCkpt()
	if len(b) != 40 {
		t.Fatalf("tampered checkpoint is %d bytes, want 40", len(b))
	}
	_, alloc, err := decodeLevelCkptAlloc(b)
	if !errors.Is(err, errLevelCkpt) {
		t.Fatalf("err = %v, want errLevelCkpt", err)
	}
	if alloc > decodeAllocBound(len(b)) {
		t.Fatalf("decoding 40 bytes allocated %d bytes", alloc)
	}
	// The same holds for every other count of the encoder's output.
	exact, voted, _ := levelCkptSeeds(t)
	for _, seed := range [][]byte{exact, voted} {
		for off := len(levelCkptMagic) + 4; off+4 <= len(seed); off += 4 {
			bad := append([]byte(nil), seed...)
			binary.LittleEndian.PutUint32(bad[off:], 1<<30)
			if _, alloc, err := decodeLevelCkptAlloc(bad); alloc > decodeAllocBound(len(bad)) {
				t.Fatalf("u32 2^30 at offset %d: %d bytes allocated (err %v)", off, alloc, err)
			}
		}
	}
}

// FuzzDecodeLevelCkpt feeds hostile bytes to the level-checkpoint
// decoder: it must never panic, every failure must be a typed
// errLevelCkpt, and no input may make it allocate more than a small
// multiple of its own size. An accepted checkpoint's rows go on through
// adoptLevelRows' frame decoder, which must not panic either and fails
// only with a typed errFrame.
func FuzzDecodeLevelCkpt(f *testing.F) {
	exact, voted, schema := levelCkptSeeds(f)
	f.Add(exact)
	f.Add(voted)
	f.Add(tamperedLevelCkpt())
	f.Add(overflowLevelCkpt(f))
	f.Add(voted[:len(voted)/2])
	f.Add([]byte(levelCkptMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		lk, alloc, err := decodeLevelCkptAlloc(b)
		if alloc > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), alloc)
		}
		if err != nil {
			if !errors.Is(err, errLevelCkpt) {
				t.Fatalf("untyped error %v", err)
			}
			if lk != nil {
				t.Fatal("decoder returned both a checkpoint and an error")
			}
			return
		}
		for _, it := range lk.items {
			if len(it.path) > tree.MaxModelDepth {
				t.Fatalf("accepted a path of %d steps", len(it.path))
			}
		}
		err = adoptLevelRows(dataset.New(schema, 0), make([]tree.FrontierItem, len(lk.items)), b)
		if err != nil && !errors.Is(err, errFrame) {
			t.Fatalf("untyped frame error %v", err)
		}
	})
}

// twoKeyFrames is redistribute's encoding of five rows of d: three under
// key 0, then two under key 1.
func twoKeyFrames(d *dataset.Dataset) []byte {
	b := appendFrame(nil, d, 0, []int32{0, 1, 2})
	return appendFrame(b, d, 1, []int32{3, 4})
}

// decodeFramesAlloc decodes b into a fresh dataset with nk keys and
// returns it, its per-key rows and the bytes the decode allocated.
func decodeFramesAlloc(s *dataset.Schema, nk int, b []byte) (*dataset.Dataset, [][]int32, uint64, error) {
	out, perKey := dataset.New(s, 0), make([][]int32, nk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeFrames(out, perKey, s, b)
	runtime.ReadMemStats(&after)
	return out, perKey, after.TotalAlloc - before.TotalAlloc, err
}

// FuzzDecodeFrames feeds hostile bytes to the record-frame decoder that
// redistribute and adoptLevelRows share: it must never panic, every
// failure must be a typed errFrame, no input may make it allocate more
// than a small multiple of its own size, and an accepted input files
// every decoded row under exactly one key.
func FuzzDecodeFrames(f *testing.F) {
	d := genDiscrete(f, 300, 2, 5)
	good := twoKeyFrames(d)
	if _, perKey, _, err := decodeFramesAlloc(d.Schema, 2, good); err != nil || len(perKey[0]) != 3 || len(perKey[1]) != 2 {
		f.Fatalf("two-key seed: err = %v, rows per key %d/%d, want 3/2", err, len(perKey[0]), len(perKey[1]))
	}
	f.Add(overflowFrame(d.Schema))
	f.Add(good)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		out, perKey, alloc, err := decodeFramesAlloc(d.Schema, 2, b)
		if alloc > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), alloc)
		}
		if err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		filed := 0
		for _, rows := range perKey {
			filed += len(rows)
		}
		if filed != out.Len() {
			t.Fatalf("decoded %d rows, filed %d under keys", out.Len(), filed)
		}
	})
}
