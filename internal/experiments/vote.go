package experiments

import (
	"partree/internal/dataset"
	"partree/internal/quest"
	"partree/internal/tree"
)

// VotePoint is one cell of the voted-split accuracy-vs-communication
// sweep: one (attribute count, k) configuration measured against the
// exact build of the same data.
type VotePoint struct {
	Attrs   int
	K       int // 0 = exact
	Procs   int
	Seconds float64 // modeled parallel runtime
	MB      float64 // total modeled message volume
	Nodes   int
	Depth   int
	TestAcc float64
	// Identical reports tree equality with the exact (K = 0) build of the
	// same configuration. Guaranteed when K ≥ Attrs; otherwise it records
	// whether the approximation happened to change the tree.
	Identical bool
}

// VoteSweep measures the voted-split-selection tradeoff: for each
// attribute count and each k, the modeled communication volume and the
// holdout accuracy of the voted build against the exact build of the
// same configuration. The exact (K = 0) run leads each attribute count's
// rows as the reference. The test set is the next testRecords rows of
// the same Quest stream — disjoint from every rank's training block,
// identically distributed.
func VoteSweep(base Spec, attrs, ks []int, testRecords int) []VotePoint {
	var out []VotePoint
	for _, a := range attrs {
		spec := base
		spec.Attrs = a
		spec.Options.Tree.Vote.K = 0
		sd := spec.withDefaults()
		test := workload(quest.Config{Function: sd.Function, Seed: sd.Seed, Attrs: a},
			sd.Records, sd.Records+testRecords, sd.Continuous)
		exactRes, exactTree := runTree(spec)
		out = append(out, votePoint(exactRes, exactTree, exactTree, a, 0, test))
		for _, k := range ks {
			vs := spec
			vs.Options.Tree.Vote.K = k
			res, t := runTree(vs)
			out = append(out, votePoint(res, t, exactTree, a, k, test))
		}
	}
	return out
}

func votePoint(res Result, t, exact *tree.Tree, attrs, k int, test *dataset.Dataset) VotePoint {
	st := t.Stats()
	return VotePoint{
		Attrs:     attrs,
		K:         k,
		Procs:     res.Spec.Procs,
		Seconds:   res.ModeledSeconds,
		MB:        float64(res.Traffic.Bytes) / 1e6,
		Nodes:     st.Nodes,
		Depth:     st.MaxDepth,
		TestAcc:   t.Accuracy(test),
		Identical: tree.Equal(t, exact),
	}
}

// VoteIdentity verifies the exactness boundary of voted split selection
// on one configuration: a build whose K is at least the attribute count
// must match the exact build bit-for-bit — same tree, same modeled
// clock, and the same per-phase × per-collective breakdown (the voted
// gate short-circuits to the exact code path, so not a single modeled
// charge may differ). Returns both results and whether they matched.
func VoteIdentity(base Spec) (exact, voted Result, same bool) {
	nA := base.Attrs
	if nA < quest.NumBaseAttrs {
		nA = quest.NumBaseAttrs
	}
	e := base
	e.Options.Tree.Vote.K = 0
	v := base
	v.Options.Tree.Vote.K = nA
	eRes, eTree := runTree(e)
	vRes, vTree := runTree(v)
	same = tree.Equal(eTree, vTree) &&
		eRes.ModeledSeconds == vRes.ModeledSeconds &&
		eRes.Breakdown.Table() == vRes.Breakdown.Table()
	return eRes, vRes, same
}
