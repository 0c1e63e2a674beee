package experiments

import (
	"encoding/json"
	"math"

	"partree/internal/mp"
)

// Isoefficiency sweep of the communication substrate (§4.3 of the paper,
// extended to non-hypercube fabrics). The synchronous formulation's
// per-level cost is one global sum-reduction of the frontier's statistics
// plus the local tabulation scan; the paper shows the hypercube allreduce
// keeps parallel efficiency constant when the problem grows as
// N = θ(P·log P). This sweep prices that per-level balance analytically
// with mp.ModelAllreduce — an exact fold of the live collectives' step
// tables into per-rank clocks, so modeled ranks into the thousands cost
// microseconds instead of millions of real messages — across topologies and collective algorithms, holding
// N = n0·P·log₂P. On the hypercube the communication-to-computation
// ratio stays flat (θ(P log P) is the right isoefficiency function);
// on hop-priced rings and tori the recursive-doubling partners are no
// longer neighbours, the ratio grows with P, and the level where it
// crosses 1.0 — the hybrid's split trigger — marks where the paper's
// scaling argument breaks off-hypercube.

// IsoCommRow is one (topology, algorithm, P) point of the sweep.
type IsoCommRow struct {
	Topology string `json:"topology"`
	Algo     string `json:"algo"`     // configured selection
	Resolved string `json:"resolved"` // algorithm that actually runs at this P
	P        int    `json:"p"`
	Records  int    `json:"records"` // N = n0·P·log₂P
	// AllreduceSec is the modeled wall-clock of one per-level reduction
	// of StatsElems int64 elements (mp.ModelAllreduce).
	AllreduceSec float64 `json:"allreduce_sec"`
	// CompSec is the modeled per-level tabulation time per rank:
	// (N/P)·attrs·t_c.
	CompSec float64 `json:"comp_sec"`
	// Efficiency is CompSec/(CompSec+AllreduceSec).
	Efficiency float64 `json:"efficiency"`
	// CommRatio is AllreduceSec/CompSec — the communication-to-computation
	// ratio the hybrid's splitting criterion compares against 1.0.
	CommRatio float64 `json:"comm_ratio"`
}

// IsoComm is the committed BENCH_comm.json artifact.
type IsoComm struct {
	Machine struct {
		TS, TW, TC, TOp, TH float64
	} `json:"machine"`
	BaseRecords    int          `json:"base_records"` // n0: records per rank at P=2
	StatsElems     int          `json:"stats_elems"`  // int64 elements per per-level reduction
	AttrsPerRecord int          `json:"attrs_per_record"`
	Topologies     []string     `json:"topologies"`
	Algos          []string     `json:"algos"`
	Rows           []IsoCommRow `json:"rows"`
}

// IsoCommDefaults returns the sweep configuration of the committed
// artifact: SP-2-like parameters with a 10 µs per-hop latency (the knob
// that makes fabrics distinguishable), 500 base records per rank, and a
// 4096-element (32 KB dense) statistics reduction per level — a frontier
// flush of a few dozen nodes.
func IsoCommDefaults() (m mp.Machine, n0, statsElems, attrs int) {
	return mp.SP2().WithHopLatency(10e-6), 500, 4096, 7
}

// IsoCommSweep prices the per-level balance for every topology × algo ×
// P ≤ maxP (P doubling from 2).
func IsoCommSweep(maxP int, m mp.Machine, n0, statsElems, attrs int, topologies []string, algos []mp.Algo) IsoComm {
	art := IsoComm{BaseRecords: n0, StatsElems: statsElems, AttrsPerRecord: attrs}
	art.Machine.TS, art.Machine.TW, art.Machine.TC, art.Machine.TOp, art.Machine.TH =
		m.TS, m.TW, m.TC, m.TOp, m.TH
	art.Topologies = topologies
	for _, a := range algos {
		art.Algos = append(art.Algos, string(a))
	}
	for _, topoName := range topologies {
		for _, algo := range algos {
			for p := 2; p <= maxP; p *= 2 {
				topo, err := mp.NewTopology(topoName, p)
				if err != nil {
					panic(err)
				}
				logP := math.Log2(float64(p))
				records := int(float64(n0) * float64(p) * logP)
				resolved := mp.ResolveAllreduceAlgo(algo, topo, p, statsElems, m)
				allr := mp.ModelAllreduce(resolved, topo, p, statsElems, m)
				comp := float64(records) / float64(p) * float64(attrs) * m.TC
				art.Rows = append(art.Rows, IsoCommRow{
					Topology:     topoName,
					Algo:         string(algo),
					Resolved:     string(resolved),
					P:            p,
					Records:      records,
					AllreduceSec: allr,
					CompSec:      comp,
					Efficiency:   comp / (comp + allr),
					CommRatio:    allr / comp,
				})
			}
		}
	}
	return art
}

// MarshalIndent renders the artifact as the committed JSON.
func (a IsoComm) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}
