package core

import (
	"fmt"

	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/tree"
)

// Out-of-core synchronous construction: BuildSync over the chunked
// Table interface. Each rank holds a section view of a shared column
// store instead of a resident block, and per-row state shrinks to one
// int32 slot. The level loop is expandLevelSync's, fed by tableRows, so
// with the default TD = 0 the modeled clocks and breakdowns are
// bit-identical to the in-RAM build; encoded chunk reads are additionally
// charged to the disk cost class (ChargeDisk) and appear as DiskBytes /
// DiskTime next to the historic columns.

// rangesOfTable streams the per-attribute [min, max] of a table's
// continuous columns, returning the encoded bytes read.
func rangesOfTable(t dataset.Table) ([][2]float64, int64, error) {
	r := emptyRanges(t.Schema())
	var ch dataset.Chunk
	var bytes int64
	for k := 0; k < t.NumChunks(); k++ {
		nb, err := t.ReadChunk(k, &ch)
		if err != nil {
			return nil, bytes, err
		}
		bytes += nb
		widenRanges(r, ch.Cont)
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
		to.Binner = o.binner(ranges)
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
	installBinner(c, local, o)
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

// tableRows is expandLevelSync's rowSource over a section of a chunked
// table; its only per-row state is the slot vector of tree.Slots. begin
// tabulates every frontier node's local block in one chunk pass; the
// flush loop takes each block with the ops TabulateInto would have billed
// for the node's local rows; expand bills PartitionRows' ops and routes
// nothing; end advances every row's slot in one routing pass. Chunk reads
// are charged to the disk class under PhaseStatistics.
type tableRows struct {
	*tree.Slots
	s *dataset.Schema
}

func (r tableRows) schema() *dataset.Schema { return r.s }

func (r tableRows) begin(c *mp.Comm, frontier []tree.FrontierItem) {
	c.BeginPhase(PhaseStatistics)
	r.Tabulate(len(frontier))
	c.EndPhase()
}

// localRows is frontier[j]'s local row count, its block's class total.
func (r tableRows) localRows(j int) int64 {
	var n int64
	for _, v := range r.Block(j)[:r.s.NumClasses()] {
		n += v
	}
	return n
}

func (r tableRows) tabulate(j int, _ tree.FrontierItem, blk []int64) int64 {
	return r.localRows(j)*int64(1+len(r.s.Attrs)) + int64(copy(blk, r.Block(j)))
}

func (r tableRows) expand(j int, it tree.FrontierItem, stats *tree.NodeStats, ids *tree.IDGen, ops *int64) []tree.FrontierItem {
	kids, split := r.Expand(j, it, stats, ids)
	if split {
		*ops += r.localRows(j)
	}
	return kids
}

func (r tableRows) end(c *mp.Comm, frontier []tree.FrontierItem) {
	c.BeginPhase(PhaseStatistics)
	r.Reroute(frontier)
	c.EndPhase()
}

// BuildSyncOOC runs the synchronous formulation over a chunked table
// with bounded resident memory (the slot vector, 4 bytes per local row).
// local is this rank's section of the training set — typically
// dataset.SectionOf(store, dataset.BlockBounds(n, p, rank)), which sees
// exactly the rows BuildSync's rank gets from BlockPartition. Levels run
// through expandLevelSync, as in BuildSync, so sibling subtraction and
// voting compose unchanged, and the returned tree, and (at TD = 0) the
// modeled clock and breakdown, are bit-identical to BuildSync on the
// materialized block; chunk reads are charged to the disk cost class.
//
// Fault tolerance is not supported out-of-core (its checkpoint cuts
// serialize resident row-index vectors); requesting it is an error —
// materialize the block and use BuildSync instead.
func BuildSyncOOC(c *mp.Comm, local dataset.Table, o Options) (*tree.Tree, error) {
	o = o.WithDefaults()
	if o.FT != nil && o.FT.Store != nil {
		return nil, fmt.Errorf("core: BuildSyncOOC does not support fault tolerance; materialize the block and use BuildSync")
	}
	if err := setupBinnerTable(c, local, &o); err != nil {
		return nil, err
	}
	s := local.Schema()
	rows := tableRows{tree.NewSlots(local, o.Tree, func(nb int64) { c.ChargeDisk(int(nb)) }), s}
	root := newRoot(s)
	ids := tree.NewIDGen(1)
	frontier := []tree.FrontierItem{{Node: root}}
	ls := newLevelState(o)
	for len(frontier) > 0 && rows.Err() == nil {
		frontier, _ = expandLevelSync(c, rows, frontier, o, ids, ls)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return &tree.Tree{Schema: s, Root: root}, nil
}
