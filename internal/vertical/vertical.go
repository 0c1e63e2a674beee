// Package vertical implements the attribute-partitioned ("DP-att")
// parallel formulation that the paper's related-work section (§2.2,
// Chattratichat et al. [8] and Pearson [19]) contrasts with its own
// record-partitioned approaches: the training set is partitioned
// *vertically* — each processor stores the full class column but only the
// columns of the attributes it owns — and every processor evaluates
// candidate splits only for its own attributes.
//
// Per frontier node: each rank scores its attributes locally (exactly, no
// histograms lost — including native binary threshold search on its
// continuous columns), the per-rank best candidates are allgathered, the
// globally best test is selected identically everywhere, and the owner of
// the winning attribute routes the node's records and broadcasts the
// child assignment (one byte per record). Everyone applies the update to
// the shared record→node map and the tree grows replicated on all ranks.
//
// The scheme is load balanced across attributes and exchanges only
// candidates plus one assignment byte per record per level — but it
// cannot use more processors than there are attributes, the scalability
// ceiling the paper points out. Ranks beyond the attribute count idle,
// and the speedup saturates at A_d — reproduced by BenchmarkVertical and
// TestVerticalSaturates.
//
// Tree identity: on any data, vertical produces exactly the tree of the
// serial depth-first Hunt builder (same exact split search, breadth-first
// order does not change per-node decisions).
package vertical

import (
	"math"

	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/tree"
)

// Build grows the tree with the attribute-partitioned formulation. Every
// rank holds the full dataset d (vertical partitioning shares the rows;
// only column *work* is divided — the storage division is modeled by the
// cost accounting, which charges each rank only for the columns it owns).
// Attributes are owned round-robin: attribute a belongs to rank a mod P.
func Build(c *mp.Comm, d *dataset.Dataset, o tree.Options) *tree.Tree {
	o = o.WithDefaults()
	s := d.Schema
	p := c.Size()
	root := &tree.Node{Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	ids := tree.NewIDGen(1)

	type item struct {
		node *tree.Node
		idx  []int32
	}
	frontier := []item{{node: root, idx: d.AllIndex()}}
	for len(frontier) > 0 {
		var next []item

		// Score phase: each rank evaluates its own attributes for every
		// frontier node (every rank has the class column, so each records
		// the node's distribution); candidates are exchanged and the
		// decision is replicated.
		cands := make([]float64, 0, len(frontier)*candFloats)
		for _, it := range frontier {
			dist := make([]int64, s.NumClasses())
			for _, i := range it.idx {
				dist[d.Class[i]]++
			}
			it.node.SetDist(dist)
			cands = append(cands, bestLocalCandidate(c, d, it.idx, it.node, o)...)
		}
		all := cands
		if p > 1 {
			all = mp.Allgatherv(c, 1, cands)
		}

		for fi, it := range frontier {
			n := it.node
			best, ok := selectGlobal(all, fi, len(frontier), p)
			if !ok {
				n.Kind = tree.Leaf
				n.Children = nil
				continue
			}
			best.Apply(n, s, ids.Next)

			// Routing phase: the winning attribute's owner computes the
			// child of every record at the node and broadcasts one byte per
			// record; other ranks cannot route (they do not own the
			// column).
			owner := best.Attr % p
			var assign []byte
			if c.Rank() == owner {
				assign = make([]byte, len(it.idx))
				for j, i := range it.idx {
					assign[j] = byte(n.RouteRow(d, int(i)))
				}
				c.Compute(float64(len(it.idx)))
			} else {
				assign = make([]byte, len(it.idx))
			}
			if p > 1 {
				mp.Bcast(c, assign, owner)
			}
			parts := make([][]int32, len(n.Children))
			for j, i := range it.idx {
				parts[assign[j]] = append(parts[assign[j]], i)
			}
			for ci, part := range parts {
				if len(part) > 0 {
					next = append(next, item{node: n.Children[ci], idx: part})
				}
			}
		}
		frontier = next
	}
	return &tree.Tree{Schema: s, Root: root}
}

// candFloats is the fixed width of one node's candidate record in the
// allgather: (score, attr, kindCode, thresh, maskLo, maskHi, valid).
const candFloats = 7

// bestLocalCandidate scores the caller's own attributes on node n, whose
// distribution is recorded, with Hunt's exact per-attribute search, and
// returns the encoded best candidate (valid=0 when none). The modeled
// compute cost covers only the owned columns — the point of vertical
// partitioning.
func bestLocalCandidate(c *mp.Comm, d *dataset.Dataset, idx []int32, n *tree.Node, o tree.Options) []float64 {
	s := d.Schema
	p := c.Size()
	parent, ok := o.MaySplit(n.Dist, n.N, n.Depth)
	if !ok {
		return make([]float64, candFloats)
	}
	best, bestScore := tree.Split{Gain: o.MinGain}, 0.0
	for a := c.Rank(); a < s.NumAttrs(); a += p {
		cand, score, ok := tree.ScoreAttr(d, idx, a, o)
		if attr := s.Attrs[a]; attr.Kind == dataset.Categorical {
			c.Compute(float64(len(idx)) + float64(attr.Cardinality()*s.NumClasses()))
		} else {
			// Per-node sort cost, as in C4.5 (vertical owners sort their
			// own column only).
			c.Compute(float64(len(idx)) * math.Log2(float64(len(idx)+1)))
		}
		if ok && best.Consider(cand, parent-score) {
			bestScore = score
		}
	}
	if best.IsLeaf() {
		return make([]float64, candFloats)
	}
	return []float64{
		bestScore,
		float64(best.Attr),
		float64(best.Kind),
		best.Thresh,
		float64(uint32(best.Mask)),
		float64(best.Mask >> 32),
		1,
	}
}

// selectGlobal picks the winning candidate of node fi from the gathered
// matrix (rank-major): highest gain wins, ties broken by ascending
// attribute index — identical on every rank, and identical to the serial
// builders' tie-break because attribute ownership is a partition of the
// attribute order.
func selectGlobal(all []float64, fi, numNodes, p int) (tree.Split, bool) {
	var best tree.Split
	bestScore := math.Inf(1)
	for r := 0; r < p; r++ {
		off := (r*numNodes + fi) * candFloats
		if off+candFloats > len(all) || all[off+6] != 1 {
			continue
		}
		score := all[off]
		attr := int(all[off+1])
		if score < bestScore || (score == bestScore && !best.IsLeaf() && attr < best.Attr) {
			bestScore = score
			best = tree.Split{
				Attr:   attr,
				Kind:   tree.SplitKind(all[off+2]),
				Thresh: all[off+3],
				Mask:   uint64(all[off+4]) | uint64(all[off+5])<<32,
			}
		}
	}
	return best, !best.IsLeaf()
}
