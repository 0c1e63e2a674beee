package core

import (
	"fmt"

	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/tree"
)

// Out-of-core synchronous construction: BuildSync re-expressed over the
// chunked Table interface. Each rank holds a section view of a shared
// column store instead of a resident block; per-row state shrinks to one
// int32 slot. The modeled charge sequence replicates expandLevelSync's
// with the exact reduce step (voting is rejected here) — per flush of
// SyncEveryNodes nodes, a PhaseStatistics Compute of the tabulation ops
// (from pre-reduction local row counts), the PhaseReduction AllreduceSum
// of the flush's packed blocks, and a PhaseStatistics Compute of the
// routing ops of the nodes that split — so with the default TD = 0 the
// modeled clocks and breakdowns are
// bit-identical to the in-RAM build; encoded chunk reads are additionally
// charged to the disk cost class (ChargeDisk) and appear as DiskBytes /
// DiskTime next to the historic columns.

// rangesOfTable streams the per-attribute [min, max] of a table's
// continuous columns, returning the encoded bytes read.
func rangesOfTable(t dataset.Table) ([][2]float64, int64, error) {
	s := t.Schema()
	r := emptyRanges(s)
	var ch dataset.Chunk
	var bytes int64
	for k := 0; k < t.NumChunks(); k++ {
		nb, err := t.ReadChunk(k, &ch)
		if err != nil {
			return nil, bytes, err
		}
		bytes += nb
		for a := range s.Attrs {
			col := ch.Cont[a]
			if col == nil {
				continue
			}
			for _, v := range col {
				if v < r[a][0] {
					r[a][0] = v
				}
				if v > r[a][1] {
					r[a][1] = v
				}
			}
		}
	}
	return r, bytes, nil
}

// SerialOptionsTable is SerialOptions over a chunked table: the induction
// parameters a serial reference build must use to match a parallel build
// of the table's rows, with the binner ranges computed in one streaming
// pass.
func (o Options) SerialOptionsTable(t dataset.Table) (tree.Options, error) {
	o = o.WithDefaults()
	to := o.Tree
	if t.Schema().NumContinuous() > 0 {
		ranges, _, err := rangesOfTable(t)
		if err != nil {
			return to, err
		}
		to.Binner = &discretize.NodeBinner{
			MicroBins: o.MicroBins,
			K:         o.NodeBins,
			Ranges:    ranges,
			Method:    o.Binning,
		}
	}
	return to, nil
}

// setupBinnerTable is setupBinner over a chunked table: the same pair of
// min/max allreduces under PhaseReduction, with the local ranges scan
// streamed and its read volume charged to the disk class.
func setupBinnerTable(c *mp.Comm, t dataset.Table, o *Options) error {
	if t.Schema().NumContinuous() == 0 {
		return nil
	}
	c.BeginPhase(PhaseReduction)
	defer c.EndPhase()
	local, nb, err := rangesOfTable(t)
	if err != nil {
		return err
	}
	c.ChargeDisk(int(nb))
	mins := make([]float64, len(local))
	maxs := make([]float64, len(local))
	for a, r := range local {
		mins[a], maxs[a] = r[0], r[1]
	}
	mp.Allreduce(c, mins, mp.Min)
	mp.Allreduce(c, maxs, mp.Max)
	ranges := make([][2]float64, len(local))
	for a := range ranges {
		ranges[a] = [2]float64{mins[a], maxs[a]}
	}
	o.Tree.Binner = &discretize.NodeBinner{MicroBins: o.MicroBins, K: o.NodeBins, Ranges: ranges, Method: o.Binning}
	return nil
}

// MaterializeCharged reads an entire table into RAM, charging the
// encoded read volume to the modeled disk cost class. This is the
// out-of-core entry point of the formulations whose working set is
// inherently resident — the record-shuffling partitioned/hybrid builders
// and the attribute-list algorithms — where streaming the build itself
// would buy nothing: their input pass is chunk-framed and honestly
// charged, everything after runs on the materialized block as before.
func MaterializeCharged(c *mp.Comm, t dataset.Table) (*dataset.Dataset, error) {
	d, nb, err := dataset.Materialize(t)
	if err != nil {
		return nil, err
	}
	c.ChargeDisk(int(nb))
	return d, nil
}

// BuildSyncOOC runs the synchronous formulation over a chunked table
// with bounded resident memory (the slot vector, 4 bytes per local row).
// local is this rank's section of the training set — typically
// dataset.SectionOf(store, dataset.BlockBounds(n, p, rank)), which sees
// exactly the rows BuildSync's rank gets from BlockPartition. The
// returned tree, and (at TD = 0) the modeled clock and breakdown, are
// bit-identical to BuildSync on the materialized block; chunk reads are
// charged to the disk cost class under the phase that consumed them.
//
// Fault tolerance and sibling subtraction are not supported out-of-core
// (their caches and checkpoint cuts assume resident row-index vectors);
// requesting either is an error — materialize the block and use
// BuildSync instead.
func BuildSyncOOC(c *mp.Comm, local dataset.Table, o Options) (*tree.Tree, error) {
	o = o.WithDefaults()
	if o.FT != nil && o.FT.Store != nil {
		return nil, fmt.Errorf("core: BuildSyncOOC does not support fault tolerance; materialize the block and use BuildSync")
	}
	if o.Tree.Reuse.Subtraction {
		return nil, fmt.Errorf("core: BuildSyncOOC does not support sibling subtraction; materialize the block and use BuildSync")
	}
	if o.Tree.Vote.K > 0 {
		return nil, fmt.Errorf("core: BuildSyncOOC does not support voted split selection; materialize the block and use BuildSync")
	}
	if err := setupBinnerTable(c, local, &o); err != nil {
		return nil, err
	}
	s := local.Schema()
	root := newRoot(s)
	ids := tree.NewIDGen(1)
	frontier := []tree.FrontierItem{{Node: root}}
	slot := make([]int32, local.Len())
	statsLen := tree.StatsLen(s, o.Tree)
	spec := tree.NewChunkSpec(s, o.Tree)
	attrs := int64(len(s.Attrs))
	var ch dataset.Chunk
	var blocks []int64
	for len(frontier) > 0 {
		nf := len(frontier)
		need := nf * statsLen
		if cap(blocks) < need {
			blocks = make([]int64, need)
		}
		blocks = blocks[:need]
		clear(blocks)

		// Statistics pass: one stream over the chunks tabulates every
		// frontier node's local block. The Compute charges are issued
		// per flush below, from the per-node row counts, so the clock
		// sequence matches the in-RAM build's flush-by-flush tabulation.
		c.BeginPhase(PhaseStatistics)
		for k := 0; k < local.NumChunks(); k++ {
			nb, err := local.ReadChunk(k, &ch)
			if err != nil {
				c.EndPhase()
				return nil, err
			}
			c.ChargeDisk(int(nb))
			tree.BindChunk(spec, &ch)
			kernel.TabulateAssigned(blocks, statsLen, slot[ch.Lo:ch.Hi], spec)
		}
		c.EndPhase()

		// Local (pre-reduction) rows per node — the len(Idx) of the
		// in-RAM path, which its tabulation and routing ops are billed by.
		localRows := make([]int64, nf)
		for j := 0; j < nf; j++ {
			var n int64
			for _, v := range blocks[j*statsLen : j*statsLen+s.NumClasses()] {
				n += v
			}
			localRows[j] = n
		}

		var next []tree.FrontierItem
		childSlots := make([][]int32, nf)
		for lo := 0; lo < nf; lo += o.SyncEveryNodes {
			hi := lo + o.SyncEveryNodes
			if hi > nf {
				hi = nf
			}
			c.BeginPhase(PhaseStatistics)
			var ops int64
			for j := lo; j < hi; j++ {
				ops += localRows[j]*(1+attrs) + int64(statsLen)
			}
			c.Compute(float64(ops))
			c.EndPhase()
			red := blocks[lo*statsLen : hi*statsLen]
			if c.Size() > 1 && len(red) > 0 {
				c.BeginPhase(PhaseReduction)
				mp.AllreduceSum(c, red, o.Tree.Reuse.SparseThreshold)
				c.EndPhase()
			}
			c.BeginPhase(PhaseStatistics)
			var routeOps int64
			for j := lo; j < hi; j++ {
				blk := blocks[j*statsLen : (j+1)*statsLen]
				kids, cs, split := tree.ExpandNodeOOC(frontier[j], tree.DecodeStats(blk, s, o.Tree), s, o.Tree, ids)
				if !split {
					continue
				}
				routeOps += localRows[j]
				base := int32(len(next))
				for ci := range cs {
					if cs[ci] >= 0 {
						cs[ci] += base
					}
				}
				childSlots[j] = cs
				next = append(next, kids...)
			}
			c.Compute(float64(routeOps))
			c.EndPhase()
		}

		// Routing pass: advance every live row's slot through its node's
		// split. The routing ops were already charged above (they are the
		// in-RAM PartitionRows charges); this pass only adds disk reads.
		if len(next) > 0 {
			c.BeginPhase(PhaseStatistics)
			for k := 0; k < local.NumChunks(); k++ {
				nb, err := local.ReadChunk(k, &ch)
				if err != nil {
					c.EndPhase()
					return nil, err
				}
				c.ChargeDisk(int(nb))
				tree.RerouteChunk(frontier, childSlots, &ch, slot[ch.Lo:ch.Hi])
			}
			c.EndPhase()
		}
		frontier = next
	}
	return &tree.Tree{Schema: s, Root: root}, nil
}
