package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/wire"
)

// redistribute is the record-shuffling primitive behind the partitioned
// formulation's Case 1/Case 2 data movement and the hybrid's moving +
// load-balancing phases. Keys are the dense indexes 0..len(rows)-1 of
// frontier (or child) nodes; rows[k] are the caller's local rows
// belonging to key k, and targets[k] the ordered comm ranks that must end
// up holding key k's records, spread evenly.
//
// The global order of key k's records — concatenation over sender ranks of
// their local row order — is preserved: target j of |T| receives global
// positions [j·G/|T|, (j+1)·G/|T|). Every rank computes the same plan from
// one allgather of the per-rank key counts, so the outcome (and the
// modeled cost) is deterministic. Records travel through one personalized
// all-to-all exchange as length-framed binary blocks, so the t_w·bytes
// charge is exact. The plan also fixes every size in advance: the frames
// bound for each destination, the records this rank receives and each
// key's share of them, so the send buffers, the received dataset and the
// per-key row lists are each allocated once at their final size.
//
// Returns a fresh local dataset holding every received record and, per
// key, the row indices of that key (in global order; empty, never nil,
// for a key this rank receives nothing of).
func redistribute(c *mp.Comm, d *dataset.Dataset, rows [][]int32, targets [][]int) (*dataset.Dataset, [][]int32) {
	p, me, nk := c.Size(), c.Rank(), len(rows)
	rb := d.Schema.RecordBytes()

	// 1. Share per-(rank, key) counts. Planning is the load-balancing
	// phase: the count exchange is what lets every rank compute the same
	// balanced placement.
	c.BeginPhase(PhaseLoadBalance)
	myCounts := make([]int64, nk)
	for k, r := range rows {
		myCounts[k] = int64(len(r))
	}
	all := mp.Allgatherv(c, 1, myCounts) // [rank][key] flattened
	if len(all) != p*nk {
		panic(fmt.Sprintf("core: redistribute count matrix %d != %d ranks × %d keys", len(all), p, nk))
	}

	// 2. Size the plan: per key, its records on lower ranks (prefix) and in
	// all (total); per destination, the bytes of its frames; per key, the
	// records this rank receives.
	prefix, total := make([]int64, nk), make([]int64, nk)
	size, arrive := make([]int, p), make([]int, nk)
	for k, t := range targets {
		for r := 0; r < p; r++ {
			n := all[r*nk+k]
			if r < me {
				prefix[k] += n
			}
			total[k] += n
		}
		for j, dst := range t {
			lo, hi := span(total[k], j, len(t))
			if dst == me {
				arrive[k] += int(hi - lo)
			}
			if a, b := max(lo, prefix[k]), min(hi, prefix[k]+myCounts[k]); a < b {
				size[dst] += 16 + int(b-a)*rb
			}
		}
	}

	// 3. Encode the frames (key, rows) per destination into buffers carved
	// from one allocation.
	var sendBytes int
	for _, n := range size {
		sendBytes += n
	}
	buf := make([]byte, sendBytes)
	send := make([][]byte, p)
	for dst, n := range size {
		send[dst], buf = buf[:0:n], buf[n:]
	}
	for k, t := range targets {
		for j, dst := range t {
			lo, hi := span(total[k], j, len(t))
			if a, b := max(lo, prefix[k]), min(hi, prefix[k]+myCounts[k]); a < b {
				send[dst] = appendFrame(send[dst], d, int64(k), rows[k][a-prefix[k]:b-prefix[k]])
			}
		}
	}
	c.EndPhase()

	// 4. Exchange and decode in sender-rank order — the moving phase. Each
	// key's row list is carved from one exact-size array, so decoding
	// appends within capacity.
	c.BeginPhase(PhaseMoving)
	recv := mp.Alltoallv(c, 2, send)
	var nrecv int
	for _, n := range arrive {
		nrecv += n
	}
	out := dataset.New(d.Schema, nrecv)
	idx := make([]int32, nrecv)
	perKey := make([][]int32, nk)
	for k, n := range arrive {
		perKey[k], idx = idx[:0:n], idx[n:]
	}
	for src := 0; src < p; src++ {
		if err := decodeFrames(out, perKey, d.Schema, recv[src]); err != nil {
			panic(fmt.Sprintf("core: redistribute decoding from rank %d: %v", src, err))
		}
	}
	c.EndPhase()
	return out, perKey
}

// span returns the global positions [lo, hi) of a key's total records
// that target j of n receives.
func span(total int64, j, n int) (lo, hi int64) {
	return total * int64(j) / int64(n), total * int64(j+1) / int64(n)
}

// appendFrame appends one (key, count, records...) frame.
func appendFrame(buf []byte, d *dataset.Dataset, key int64, idx []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(key))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(idx)))
	return dataset.EncodeRows(buf, d, idx)
}

// errFrame types every decodeFrames failure.
var errFrame = errors.New("core: malformed record frame")

// decodeFrames parses a concatenation of frames, appending the records to
// out and their new row indices to perKey[key]; a key outside perKey, or
// a record count the bytes left cannot hold, is an errFrame.
func decodeFrames(out *dataset.Dataset, perKey [][]int32, s *dataset.Schema, buf []byte) error {
	rb := s.RecordBytes()
	r := wire.NewReader(buf, errFrame)
	for r.Len() > 0 {
		key := r.U64()
		n := r.Fits(r.U64(), rb, "records")
		if err := r.Err(); err != nil {
			return err
		}
		if key >= uint64(len(perKey)) {
			return fmt.Errorf("%w: key %d outside %d keys", errFrame, int64(key), len(perKey))
		}
		start := out.Len()
		if err := dataset.Decode(out, s, r.Bytes(n*rb)); err != nil {
			return fmt.Errorf("%w: %w", errFrame, err)
		}
		for i := start; i < out.Len(); i++ {
			perKey[key] = append(perKey[key], int32(i))
		}
	}
	return nil
}
