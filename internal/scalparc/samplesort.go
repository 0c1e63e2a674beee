package scalparc

import (
	"math"
	"sort"

	"partree/internal/mp"
	"partree/internal/sprint"
)

// sampleSort globally sorts the ranks' entries by (value, rid) and
// returns this rank's contiguous section of the sorted order (rank r's
// section entirely precedes rank r+1's) — SPRINT's one-time pre-sorting
// step, realized with the classic parallel sample sort: local sort,
// regular sampling, shared splitter selection, splitter-partitioned
// personalized exchange, local merge.
func sampleSort(c *mp.Comm, local []sprint.Entry, attrTag int) []sprint.Entry {
	p := c.Size()
	sprint.SortEntries(local)
	if p == 1 {
		return local
	}

	// Regular samples: p-1 per rank, at evenly spaced positions.
	samples := make([]float64, 0, 2*(p-1))
	for i := 1; i < p; i++ {
		if len(local) == 0 {
			// Empty ranks contribute +inf sentinels so splitter positions
			// stay aligned.
			samples = append(samples, math.Inf(1), math.MaxFloat64)
			continue
		}
		e := local[i*len(local)/p]
		samples = append(samples, e.Value, float64(e.RID))
	}
	all := mp.Allgatherv(c, 20+attrTag<<4, samples)

	// Sort the (value, rid) sample keys and take every p-th as splitter.
	type key struct {
		v   float64
		rid float64
	}
	keys := make([]key, 0, len(all)/2)
	for i := 0; i+1 < len(all); i += 2 {
		keys = append(keys, key{all[i], all[i+1]})
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].v != keys[b].v {
			return keys[a].v < keys[b].v
		}
		return keys[a].rid < keys[b].rid
	})
	splitters := make([]key, p-1)
	for i := range splitters {
		splitters[i] = keys[(i+1)*len(keys)/p-1]
	}

	// Partition the local entries by splitter and exchange.
	send := make([][]byte, p)
	dst := 0
	for _, e := range local {
		for dst < p-1 {
			sp := splitters[dst]
			if e.Value < sp.v || (e.Value == sp.v && float64(e.RID) <= sp.rid) {
				break
			}
			dst++
		}
		send[dst] = appendEntry(send[dst], e)
	}
	recv := mp.Alltoallv(c, 21+attrTag<<4, send)
	var merged []sprint.Entry
	for _, blk := range recv {
		merged = append(merged, decodeEntries(blk)...)
	}
	sprint.SortEntries(merged)
	return merged
}
