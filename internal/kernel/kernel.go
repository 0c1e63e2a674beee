// Package kernel owns the two hot inner loops every formulation in the
// repo bottoms out in — categorical class-histogram tabulation and the
// sorted continuous-split scan — behind a mergeable flat-[]int64
// statistics API with pooled, zero-allocation buffers.
//
// Layering: kernel sits below everything and imports nothing from the
// repo. criteria delegates its histogram construction and sorted-scan
// search here; tree, core, sliq, sprint, scalparc and vertical reach the
// kernels either directly (flat statistics blocks) or through criteria
// (Hist scoring, ContScanner state machines). Impurity measures are passed
// in through the Impurity interface, which criteria.Criterion satisfies.
//
// Merge semantics: every kernel output is a vector of int64 counts, and a
// partition of the input rows maps to a plain element-wise sum of the
// per-partition outputs. Integer addition is associative and commutative
// and cannot lose precision, so per-chunk partials within a rank, and
// per-rank partials across the machine (mp.Allreduce with mp.Sum), reduce
// to bit-identical totals regardless of partition shape or merge order.
// That single property is what makes the paper's global reductions, the
// chunk-by-chunk out-of-core passes and the serial reference all
// interchangeable.
//
// Modeled-cost invariant: TabulateInto returns the modeled operation count
// of the *algorithm* — one op per record-attribute touch plus one per
// histogram cell (the C·A_d·M "initialization and update of the class
// histogram tables" term of the paper's Equation 1) — a function of input
// sizes.
package kernel

import "fmt"

// AttrColumn describes one attribute's column for tabulation: exactly one
// of Cat or Cont is set. Bins is the histogram row count (the categorical
// cardinality, or the number of micro bins); Edges are the Bins-1
// ascending micro-bin boundaries of a continuous column.
type AttrColumn struct {
	Cat   []int32
	Cont  []float64
	Bins  int
	Edges []float64
}

// Spec describes the flattened statistics layout of one tree node: the
// class-distribution vector (Classes counts) followed by one Bins×Classes
// class-histogram block per attribute. It is the unit of the synchronous
// formulation's global reduction, and is immutable once built — one Spec
// serves a whole build and is safe for concurrent use.
type Spec struct {
	Classes int
	Class   []int32 // class column, indexed by row id
	Attrs   []AttrColumn
}

// StatsLen returns the flattened vector length.
func (sp *Spec) StatsLen() int {
	n := sp.Classes
	for _, a := range sp.Attrs {
		n += a.Bins * sp.Classes
	}
	return n
}

// TabulateInto tabulates the class distribution and per-attribute class
// histograms of the rows idx into flat (length ≥ StatsLen), accumulating
// on top of existing counts. Returns the modeled operation count: the
// class scan, the histogram-table upkeep (one op per cell, paid whether
// or not rows land there — Equation 1's C·A_d·M term), and one op per
// record-attribute touch.
func TabulateInto(flat []int64, idx []int32, sp *Spec) int64 {
	c := sp.Classes
	class := sp.Class
	for _, i := range idx {
		flat[class[i]]++
	}
	off := c
	for _, a := range sp.Attrs {
		if a.Cat != nil {
			col := a.Cat
			for _, i := range idx {
				flat[off+int(col[i])*c+int(class[i])]++
			}
		} else {
			col := a.Cont
			edges := a.Edges
			for _, i := range idx {
				b := BinOf(edges, col[i])
				flat[off+b*c+int(class[i])]++
			}
		}
		off += a.Bins * c
	}
	return int64(len(idx)) + int64(len(flat)) + int64(len(sp.Attrs))*int64(len(idx))
}

// TabulateCat tabulates one categorical class histogram: counts[v*c + cl]
// accumulates the rows i of idx with values[i]==v, classes[i]==cl. This is
// the kernel behind criteria.HistFor/HistInto.
func TabulateCat(counts []int64, values []int32, classes []int32, idx []int32, c int) {
	for _, i := range idx {
		counts[int(values[i])*c+int(classes[i])]++
	}
}

// BinOf locates the bin of v among ascending boundary edges with the
// half-open convention shared by every module that bins continuous
// values: bin i is (edges[i-1], edges[i]], bin 0 is (-inf, edges[0]] and
// bin len(edges) is (edges[len-1], +inf). criteria.BinOf delegates here,
// so tree routing, per-node discretization and histogram collection all
// count and route a boundary value identically.
func BinOf(edges []float64, v float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Validate reports a descriptive error for malformed specs; the builders
// construct specs programmatically, so this is a debugging aid, not a hot
// path.
func (sp *Spec) Validate() error {
	if sp.Classes <= 0 {
		return fmt.Errorf("kernel: spec has %d classes", sp.Classes)
	}
	for a, col := range sp.Attrs {
		if (col.Cat == nil) == (col.Cont == nil) {
			return fmt.Errorf("kernel: attr %d must set exactly one of Cat/Cont", a)
		}
		if col.Bins <= 0 {
			return fmt.Errorf("kernel: attr %d has %d bins", a, col.Bins)
		}
		if col.Cont != nil && len(col.Edges) != col.Bins-1 {
			return fmt.Errorf("kernel: attr %d has %d edges for %d bins", a, len(col.Edges), col.Bins)
		}
	}
	return nil
}
