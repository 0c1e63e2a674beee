package dataset

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return &Schema{
		Attrs: []Attribute{
			{Name: "color", Kind: Categorical, Values: []string{"red", "green", "blue"}},
			{Name: "size", Kind: Continuous},
			{Name: "shape", Kind: Categorical, Values: []string{"round", "square"}},
			{Name: "weight", Kind: Continuous},
		},
		Classes: []string{"yes", "no"},
	}
}

func randomDataset(rng *rand.Rand, s *Schema, n int) *Dataset {
	d := New(s, n)
	rec := NewRecord(s)
	for i := 0; i < n; i++ {
		for a, attr := range s.Attrs {
			if attr.Kind == Categorical {
				rec.Cat[a] = int32(rng.IntN(attr.Cardinality()))
			} else {
				rec.Cont[a] = rng.NormFloat64() * 100
			}
		}
		rec.Class = int32(rng.IntN(s.NumClasses()))
		rec.RID = int64(i)
		d.Append(rec)
	}
	return d
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Schema)
		wantErr bool
	}{
		{"valid", func(s *Schema) {}, false},
		{"no classes", func(s *Schema) { s.Classes = nil }, true},
		{"empty attr name", func(s *Schema) { s.Attrs[0].Name = "" }, true},
		{"dup attr name", func(s *Schema) { s.Attrs[1].Name = s.Attrs[0].Name }, true},
		{"categorical no values", func(s *Schema) { s.Attrs[0].Values = nil }, true},
		{"dup value", func(s *Schema) { s.Attrs[0].Values = []string{"a", "a"} }, true},
		{"continuous with values", func(s *Schema) { s.Attrs[1].Values = []string{"x"} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSchema()
			tc.mutate(s)
			err := s.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestSchemaDerived(t *testing.T) {
	s := testSchema()
	if got := s.NumCategorical(); got != 2 {
		t.Errorf("NumCategorical = %d", got)
	}
	if got := s.NumContinuous(); got != 2 {
		t.Errorf("NumContinuous = %d", got)
	}
	if got := s.MeanCardinality(); got != 2.5 {
		t.Errorf("MeanCardinality = %g", got)
	}
	// 2 categorical × 4 + 2 continuous × 8 + class 4 + rid 8.
	if got := s.RecordBytes(); got != 2*4+2*8+4+8 {
		t.Errorf("RecordBytes = %d", got)
	}
	if s.AttrIndex("shape") != 2 || s.AttrIndex("nope") != -1 {
		t.Error("AttrIndex broken")
	}
	if s.ClassIndex("no") != 1 || s.ClassIndex("maybe") != -1 {
		t.Error("ClassIndex broken")
	}
}

func TestSchemaCloneIndependence(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Attrs[0].Values[0] = "mutated"
	c.Classes[0] = "mutated"
	if s.Attrs[0].Values[0] != "red" || s.Classes[0] != "yes" {
		t.Fatal("Clone aliases the original schema")
	}
}

func TestRowRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	d := randomDataset(rng, testSchema(), 50)
	d2 := New(d.Schema, 0)
	for i := 0; i < d.Len(); i++ {
		d2.Append(d.Row(i))
	}
	if !datasetEqual(d, d2) {
		t.Fatal("row-wise copy differs from original")
	}
}

func TestSelectAndSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	d := randomDataset(rng, testSchema(), 20)
	sel := d.Select([]int32{3, 1, 7})
	if sel.Len() != 3 {
		t.Fatalf("Select length %d", sel.Len())
	}
	if sel.RID[0] != 3 || sel.RID[1] != 1 || sel.RID[2] != 7 {
		t.Fatalf("Select order wrong: %v", sel.RID)
	}
	sl := d.Slice(5, 9)
	if sl.Len() != 4 || sl.RID[0] != 5 {
		t.Fatalf("Slice wrong: len=%d first=%d", sl.Len(), sl.RID[0])
	}
}

func TestBlockPartitionCoversAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	for _, n := range []int{0, 1, 7, 100} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			d := randomDataset(rng, testSchema(), n)
			blocks := d.BlockPartition(p)
			if len(blocks) != p {
				t.Fatalf("n=%d p=%d: %d blocks", n, p, len(blocks))
			}
			joined := New(d.Schema, n)
			sizeMin, sizeMax := n, 0
			for _, b := range blocks {
				joined.AppendAll(b)
				if b.Len() < sizeMin {
					sizeMin = b.Len()
				}
				if b.Len() > sizeMax {
					sizeMax = b.Len()
				}
			}
			if !datasetEqual(d, joined) {
				t.Fatalf("n=%d p=%d: concatenated blocks differ from original", n, p)
			}
			if sizeMax-sizeMin > 1 {
				t.Fatalf("n=%d p=%d: block sizes differ by %d", n, p, sizeMax-sizeMin)
			}
		}
	}
}

func TestCodecRoundtripProperty(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewPCG(4, 1))
	f := func(seed uint64, n uint8) bool {
		local := rand.New(rand.NewPCG(seed, 9))
		d := randomDataset(local, s, int(n)%64)
		buf := EncodeAll(nil, d)
		if len(buf) != d.Len()*s.RecordBytes() {
			return false
		}
		out := New(s, 0)
		if err := Decode(out, s, buf); err != nil {
			return false
		}
		return datasetEqual(d, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

func TestCodecRejectsCorrupt(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewPCG(5, 1))
	d := randomDataset(rng, s, 3)
	buf := EncodeAll(nil, d)
	if err := Decode(New(s, 0), s, buf[:len(buf)-1]); err == nil {
		t.Error("truncated buffer accepted")
	}
	// Corrupt a class code beyond range.
	bad := append([]byte(nil), buf...)
	bad[8] = 0xFF
	if err := Decode(New(s, 0), s, bad); err == nil {
		t.Error("corrupt class code accepted")
	}
}

// TestDecodeMalformedMidBuffer: a bad class code or a bad category code
// in the middle of a buffer is an error, and the records before it stay
// appended — whole, in every column — after the rows dst already held.
func TestDecodeMalformedMidBuffer(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewPCG(7, 1))
	d := randomDataset(rng, s, 10)
	buf := EncodeAll(nil, d)
	rb := s.RecordBytes()
	const bad = 6 // records 0..5 decode, record 6 is corrupt
	for _, tc := range []struct {
		name string
		off  int // byte offset inside the record
		want string
	}{
		{"class", 8, "class code"},
		{"category", 12 + 4 + 8, `attribute "shape"`}, // RID, class, color, size
	} {
		corrupt := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(corrupt[bad*rb+tc.off:], 99)
		out := New(s, 0)
		out.AppendFrom(d, 9)
		err := Decode(out, s, corrupt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
		want := New(s, 0)
		want.AppendFrom(d, 9)
		for i := 0; i < bad; i++ {
			want.AppendFrom(d, i)
		}
		if !datasetEqual(want, out) {
			t.Fatalf("%s: %d rows after the error, want row 9 then rows 0..%d", tc.name, out.Len(), bad-1)
		}
		for a := range s.Attrs {
			if n := len(out.Cat[a]) + len(out.Cont[a]); n != out.Len() {
				t.Fatalf("%s: attribute %d holds %d rows, dataset %d", tc.name, a, n, out.Len())
			}
		}
	}
}

func TestCSVRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	d := randomDataset(rng, testSchema(), 30)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetEqual(d, got) {
		t.Fatal("CSV roundtrip changed the data")
	}
}

func TestCSVErrors(t *testing.T) {
	s := testSchema()
	if _, err := ReadCSV(strings.NewReader("bogus,header,x,y,z\n"), s); err == nil {
		t.Error("bad header accepted")
	}
	good := "color,size,shape,weight,class\n"
	if _, err := ReadCSV(strings.NewReader(good+"purple,1,round,2,yes\n"), s); err == nil {
		t.Error("unknown categorical value accepted")
	}
	if _, err := ReadCSV(strings.NewReader(good+"red,xx,round,2,yes\n"), s); err == nil {
		t.Error("non-numeric continuous accepted")
	}
	if _, err := ReadCSV(strings.NewReader(good+"red,1,round,2,maybe\n"), s); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestWeatherGolden(t *testing.T) {
	w := Weather()
	if w.Len() != 14 {
		t.Fatalf("weather has %d cases, want 14", w.Len())
	}
	counts := w.ClassCounts()
	if counts[0] != 9 || counts[1] != 5 {
		t.Fatalf("class distribution %v, want [9 5]", counts)
	}
	// Table 2: Outlook {sunny: 2/3, overcast: 4/0, rain: 3/2}.
	want := map[string][2]int64{"sunny": {2, 3}, "overcast": {4, 0}, "rain": {3, 2}}
	got := map[string][2]int64{}
	for i := 0; i < w.Len(); i++ {
		name := w.Schema.Attrs[0].Values[w.Cat[0][i]]
		e := got[name]
		e[w.Class[i]]++
		got[name] = e
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Table 2 mismatch: got %v, want %v", got, want)
	}
}

func TestAssignRIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	d := randomDataset(rng, testSchema(), 5)
	next := d.AssignRIDs(100)
	if next != 105 {
		t.Fatalf("next rid %d", next)
	}
	for i, r := range d.RID {
		if r != int64(100+i) {
			t.Fatalf("rid[%d] = %d", i, r)
		}
	}
}

func datasetEqual(a, b *Dataset) bool {
	if a.Len() != b.Len() {
		return false
	}
	if !reflect.DeepEqual(a.Class, b.Class) && !(len(a.Class) == 0 && len(b.Class) == 0) {
		return false
	}
	if !reflect.DeepEqual(a.RID, b.RID) && !(len(a.RID) == 0 && len(b.RID) == 0) {
		return false
	}
	for i := range a.Schema.Attrs {
		if a.Cat[i] != nil {
			if !reflect.DeepEqual(a.Cat[i], b.Cat[i]) && len(a.Cat[i])+len(b.Cat[i]) > 0 {
				return false
			}
		} else {
			if !reflect.DeepEqual(a.Cont[i], b.Cont[i]) && len(a.Cont[i])+len(b.Cont[i]) > 0 {
				return false
			}
		}
	}
	return true
}
