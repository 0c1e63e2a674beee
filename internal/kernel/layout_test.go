package kernel_test

import (
	"slices"
	"testing"

	"partree/internal/kernel"
)

// randomSpec synthesizes n rows under a random schema: up to maxAttrs
// attributes, each categorical of at most MaxNarrow values (byte-coded),
// categorical of more (gathered), or continuous with micro edges
// (gathered), and classes classes.
func randomSpec(r *lcg, n, maxAttrs, classes int) *kernel.Spec {
	sp := &kernel.Spec{Classes: classes, Class: make([]int32, n)}
	for i := range sp.Class {
		sp.Class[i] = r.class(classes)
	}
	for a := 0; a < 1+r.intn(maxAttrs); a++ {
		switch r.intn(3) {
		case 0: // narrow: 1..256 values, the boundary included
			bins := []int{1, 2, 17, kernel.MaxNarrow}[r.intn(4)]
			col := make([]int32, n)
			for i := range col {
				col[i] = r.value(bins)
			}
			sp.Attrs = append(sp.Attrs, kernel.AttrColumn{Cat: col, Bins: bins})
		case 1: // wide: just past a byte
			bins := kernel.MaxNarrow + 1 + r.intn(40)
			col := make([]int32, n)
			for i := range col {
				col[i] = r.value(bins)
			}
			sp.Attrs = append(sp.Attrs, kernel.AttrColumn{Cat: col, Bins: bins})
		default:
			bins := 1 + r.intn(12)
			col := make([]float64, n)
			for i := range col {
				col[i] = r.cont(-1, 1)
			}
			edges := make([]float64, bins-1)
			for i := range edges {
				edges[i] = -1 + 2*float64(i+1)/float64(bins)
			}
			sp.Attrs = append(sp.Attrs, kernel.AttrColumn{Cont: col, Bins: bins, Edges: edges})
		}
	}
	return sp
}

// checkRanges packs a random subset of sp's rows in a random order, cuts
// it into node ranges, and requires TabulateRange on every range to add
// exactly what TabulateInto adds over the range's gathered ids, on top of
// the same non-zero block, with the same op count.
func checkRanges(t *testing.T, r *lcg, sp *kernel.Spec, n int) {
	t.Helper()
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if r.intn(4) != 0 {
			ids = append(ids, int32(i))
		}
	}
	for i := len(ids) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	pk := &kernel.Packed{IDs: ids}
	pk.Pack(sp)
	if narrow := sp.Classes <= kernel.MaxNarrow; (pk.Class != nil) != narrow {
		t.Fatalf("%d classes: class column packed = %v", sp.Classes, pk.Class != nil)
	}
	for a := range sp.Attrs {
		if (pk.Cols[a] != nil) != sp.Narrow(a) {
			t.Fatalf("attr %d (%d bins, cat %v): byte column = %v, Narrow = %v", a, sp.Attrs[a].Bins, sp.Attrs[a].Cat != nil, pk.Cols[a] != nil, sp.Narrow(a))
		}
	}
	got := make([]int64, sp.StatsLen())
	want := make([]int64, sp.StatsLen())
	for lo := 0; lo <= len(ids); {
		hi := lo + r.intn(len(ids)-lo+1)
		for i := range got {
			got[i] = int64(i % 5)
		}
		copy(want, got)
		gops := kernel.TabulateRange(got, sp, pk, lo, hi)
		wops := kernel.TabulateInto(want, ids[lo:hi], sp)
		if gops != wops {
			t.Fatalf("range [%d,%d): %d ops, TabulateInto bills %d", lo, hi, gops, wops)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("range [%d,%d): block differs from TabulateInto's", lo, hi)
		}
		if hi == len(ids) {
			break
		}
		lo = hi
	}
}

// TestTabulateRangeMatchesGather covers a fixed set of schemas, the class
// fallback (more classes than a byte holds) included.
func TestTabulateRangeMatchesGather(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := lcg(seed)
		classes := 2 + r.intn(5)
		if seed%10 == 0 {
			classes = kernel.MaxNarrow + 1 + r.intn(8)
		}
		n := 1 + r.intn(600)
		checkRanges(t, &r, randomSpec(&r, n, 6, classes), n)
	}
}

// FuzzTabulateRange is the differential fuzz of the range tabulator
// against the gather kernel on random schemas, row subsets, orders and
// ranges.
func FuzzTabulateRange(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(4), uint16(2))
	f.Add(uint64(7), uint16(1), uint8(1), uint16(300))
	f.Add(uint64(99), uint16(900), uint8(9), uint16(256))
	f.Add(uint64(59), uint16(0), uint8(1), uint16(90)) // no row packed
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, attrs uint8, classes uint16) {
		n := int(rows%2048) + 1
		c := int(classes%400) + 1
		r := lcg(seed)
		checkRanges(t, &r, randomSpec(&r, n, int(attrs%12)+1, c), n)
	})
}
