package mp

import (
	"fmt"
	"reflect"
	"testing"
)

// testSizes covers 1, 2, powers of two and awkward non-powers.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

func TestSendRecvFIFO(t *testing.T) {
	w := NewWorld(2, SP2())
	got := make([]int64, 0, 10)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 10; i++ {
				SendSlice(c, 1, 5, []int64{int64(i)})
			}
		case 1:
			for i := 0; i < 10; i++ {
				got = append(got, RecvSlice[int64](c, 0, 5)[0])
			}
		}
	})
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("message %d out of order: got %d", i, v)
		}
	}
}

func TestRecvByTagAndSource(t *testing.T) {
	w := NewWorld(3, SP2())
	var fromTag2, from2 []int64
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 1:
			SendSlice(c, 0, 1, []int64{11})
			SendSlice(c, 0, 2, []int64{12})
		case 2:
			SendSlice(c, 0, 1, []int64{21})
		case 0:
			// Receive out of arrival order: tag 2 first, then by source.
			fromTag2 = RecvSlice[int64](c, 1, 2)
			from2 = RecvSlice[int64](c, 2, 1)
			if got := RecvSlice[int64](c, 1, 1); got[0] != 11 {
				t.Errorf("rank1/tag1: got %d, want 11", got[0])
			}
		}
	})
	if fromTag2[0] != 12 || from2[0] != 21 {
		t.Fatalf("selective receive failed: %v %v", fromTag2, from2)
	}
}

func TestTryRecv(t *testing.T) {
	w := NewWorld(2, SP2())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			// Tag 8 is never sent: TryRecv must not block and must miss.
			if _, ok := c.TryRecv(1, 8); ok {
				t.Error("TryRecv returned a message for a tag never sent")
			}
			c.Barrier()
			// After the barrier, rank 1's pre-barrier send is delivered.
			if _, ok := c.TryRecv(1, 9); !ok {
				t.Error("TryRecv missed a delivered message")
			}
		} else {
			SendSlice(c, 0, 9, []int64{1})
			c.Barrier()
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range testSizes {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			w := NewWorld(p, SP2())
			results := make([][]int64, p)
			w.Run(func(c *Comm) {
				x := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
				Allreduce(c, x, Sum)
				results[c.Rank()] = x
			})
			var wantA, wantC int64
			for r := 0; r < p; r++ {
				wantA += int64(r)
				wantC += int64(r * r)
			}
			want := []int64{wantA, int64(p), wantC}
			for r, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d: got %v, want %v", r, got, want)
				}
			}
		})
	}
}

func TestAllreduceMinMaxFloat(t *testing.T) {
	for _, p := range testSizes {
		w := NewWorld(p, SP2())
		mins := make([]float64, p)
		maxs := make([]float64, p)
		w.Run(func(c *Comm) {
			lo := []float64{float64(c.Rank()) * 1.5}
			hi := []float64{float64(c.Rank()) * 1.5}
			Allreduce(c, lo, Min)
			Allreduce(c, hi, Max)
			mins[c.Rank()], maxs[c.Rank()] = lo[0], hi[0]
		})
		for r := 0; r < p; r++ {
			if mins[r] != 0 || maxs[r] != float64(p-1)*1.5 {
				t.Fatalf("p=%d rank %d: min %g max %g", p, r, mins[r], maxs[r])
			}
		}
	}
}

func TestReduceAndBcastAllRoots(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root++ {
			w := NewWorld(p, SP2())
			out := make([][]int64, p)
			w.Run(func(c *Comm) {
				x := []int64{int64(c.Rank() + 1)}
				Reduce(c, x, Sum, root)
				if c.Rank() == root {
					x[0] *= 10
				} else {
					x[0] = -1
				}
				Bcast(c, x, root)
				out[c.Rank()] = x
			})
			want := int64(p*(p+1)/2) * 10
			for r := 0; r < p; r++ {
				if out[r][0] != want {
					t.Fatalf("p=%d root=%d rank=%d: got %d, want %d", p, root, r, out[r][0], want)
				}
			}
		}
	}
}

func TestGatherv(t *testing.T) {
	for _, p := range testSizes {
		w := NewWorld(p, SP2())
		var rows [][]int64
		w.Run(func(c *Comm) {
			mine := make([]int64, c.Rank()) // rank r contributes r elements
			for i := range mine {
				mine[i] = int64(c.Rank()*100 + i)
			}
			got := Gatherv(c, 3, mine, 0)
			if c.Rank() == 0 {
				rows = got
			} else if got != nil {
				t.Errorf("non-root rank %d received a gather result", c.Rank())
			}
		})
		if len(rows) != p {
			t.Fatalf("p=%d: gathered %d rows", p, len(rows))
		}
		for r, row := range rows {
			if len(row) != r {
				t.Fatalf("p=%d: row %d has %d elements, want %d", p, r, len(row), r)
			}
			for i, v := range row {
				if v != int64(r*100+i) {
					t.Fatalf("p=%d row %d[%d] = %d", p, r, i, v)
				}
			}
		}
	}
}

func TestAllgathervOrderAndReplication(t *testing.T) {
	for _, p := range testSizes {
		w := NewWorld(p, SP2())
		outs := make([][]int64, p)
		w.Run(func(c *Comm) {
			mine := make([]int64, c.Rank()%3) // including empty contributions
			for i := range mine {
				mine[i] = int64(c.Rank()*10 + i)
			}
			outs[c.Rank()] = Allgatherv(c, 4, mine)
		})
		var want []int64
		for r := 0; r < p; r++ {
			for i := 0; i < r%3; i++ {
				want = append(want, int64(r*10+i))
			}
		}
		for r := 0; r < p; r++ {
			if !reflect.DeepEqual(outs[r], want) && !(len(outs[r]) == 0 && len(want) == 0) {
				t.Fatalf("p=%d rank %d: got %v, want %v", p, r, outs[r], want)
			}
		}
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range testSizes {
		w := NewWorld(p, SP2())
		outs := make([][][]byte, p)
		w.Run(func(c *Comm) {
			send := make([][]byte, p)
			for dst := 0; dst < p; dst++ {
				send[dst] = []byte(fmt.Sprintf("%d->%d", c.Rank(), dst))
			}
			outs[c.Rank()] = Alltoallv(c, 6, send)
		})
		for r := 0; r < p; r++ {
			for src := 0; src < p; src++ {
				want := fmt.Sprintf("%d->%d", src, r)
				if string(outs[r][src]) != want {
					t.Fatalf("p=%d: rank %d block from %d = %q, want %q", p, r, src, outs[r][src], want)
				}
			}
		}
	}
}

func TestBcastValue(t *testing.T) {
	type payload struct{ X int }
	for _, p := range testSizes {
		for root := 0; root < p; root += 2 {
			w := NewWorld(p, SP2())
			got := make([]any, p)
			w.Run(func(c *Comm) {
				var v any
				if c.Rank() == root {
					v = &payload{X: 42}
				}
				got[c.Rank()] = BcastValue(c, v, 100, root)
			})
			for r := 0; r < p; r++ {
				pl, ok := got[r].(*payload)
				if !ok || pl.X != 42 {
					t.Fatalf("p=%d root=%d rank=%d: got %#v", p, root, r, got[r])
				}
			}
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	w := NewWorld(4, SP2())
	w.Run(func(c *Comm) {
		c.Compute(float64(c.Rank()) * 1e6) // rank r works r seconds
		c.Barrier()
		if c.Clock() < 3.0 {
			t.Errorf("rank %d clock %.3f < slowest rank's 3.0 after barrier", c.Rank(), c.Clock())
		}
	})
}

func TestClockMonotonicAndDeterministic(t *testing.T) {
	run := func() []float64 {
		w := NewWorld(5, SP2())
		w.Run(func(c *Comm) {
			prev := c.Clock()
			for i := 0; i < 20; i++ {
				x := []int64{int64(c.Rank())}
				Allreduce(c, x, Sum)
				c.Compute(float64((c.Rank()*7+i)%5) * 1000)
				if c.Clock() < prev {
					t.Errorf("clock went backwards on rank %d", c.Rank())
				}
				prev = c.Clock()
			}
		})
		out := make([]float64, 5)
		for r := range out {
			out[r] = w.Clock(r)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("modeled clocks are not deterministic: %v vs %v", a, b)
	}
}

func TestSendCostAccounting(t *testing.T) {
	m := Machine{TS: 1e-3, TW: 1e-6, TC: 1, TOp: 0}
	w := NewWorld(2, m)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, nil, 1000)
			want := 1e-3 + 1e-6*1000
			if diff := c.Clock() - want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("sender clock %.9f, want %.9f", c.Clock(), want)
			}
		} else {
			msg := c.Recv(0, 0)
			if msg.Bytes != 1000 {
				t.Errorf("bytes = %d", msg.Bytes)
			}
			if c.Clock() < 2e-3-1e-12 {
				t.Errorf("receiver clock %.9f below arrival time", c.Clock())
			}
		}
	})
	tr := w.Traffic()
	if tr.Msgs != 1 || tr.Bytes != 1000 {
		t.Fatalf("traffic = %+v", tr)
	}
}

func TestSplitGroupsAndIsolation(t *testing.T) {
	w := NewWorld(6, SP2())
	w.Run(func(c *Comm) {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("rank %d: subcomm size %d, want 3", c.Rank(), sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Errorf("rank %d: subrank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		if sub.WorldRank(sub.Rank()) != c.Rank() {
			t.Errorf("rank %d: world mapping broken", c.Rank())
		}
		// Same-tag traffic in sibling comms must not cross.
		x := []int64{int64(c.Rank())}
		Allreduce(sub, x, Sum)
		want := int64(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		if x[0] != want {
			t.Errorf("rank %d: sibling crosstalk, sum=%d want %d", c.Rank(), x[0], want)
		}
	})
}

func TestSplitByKeyReorders(t *testing.T) {
	w := NewWorld(4, SP2())
	w.Run(func(c *Comm) {
		// All same color; key reverses the order.
		sub := c.Split(0, -c.Rank())
		if want := 3 - c.Rank(); sub.Rank() != want {
			t.Errorf("rank %d: subrank %d, want %d", c.Rank(), sub.Rank(), want)
		}
	})
}

func TestNestedSplitIDsDistinct(t *testing.T) {
	w := NewWorld(4, SP2())
	ids := make([]string, 4)
	w.Run(func(c *Comm) {
		a := c.Split(c.Rank()/2, c.Rank())
		b := a.Split(0, a.Rank())
		ids[c.Rank()] = b.ID()
	})
	if ids[0] == ids[2] {
		t.Fatalf("sibling-descended comms share id %q", ids[0])
	}
	if ids[0] != ids[1] || ids[2] != ids[3] {
		t.Fatalf("comm members disagree on id: %v", ids)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from Run")
		}
	}()
	w := NewWorld(2, SP2())
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestWorldReset(t *testing.T) {
	w := NewWorld(2, SP2())
	w.Run(func(c *Comm) { c.Barrier() })
	if w.Traffic().Msgs == 0 {
		t.Fatal("expected traffic from barrier")
	}
	w.Reset()
	tr := w.Traffic()
	if tr.Msgs != 0 || tr.Bytes != 0 || w.MaxClock() != 0 {
		t.Fatalf("reset did not clear counters: %+v clock=%g", tr, w.MaxClock())
	}
}

func TestAllreduceEquationTwoCost(t *testing.T) {
	// For a power-of-two comm, one allreduce of m bytes must cost each rank
	// exactly (t_s + t_w·m)·log2(P) in modeled time (Equation 2 with no
	// waiting, since all ranks enter simultaneously).
	m := Machine{TS: 1e-3, TW: 1e-6}
	const p = 8
	w := NewWorld(p, m)
	w.Run(func(c *Comm) {
		x := make([]int64, 125) // 1000 bytes
		Allreduce(c, x, Sum)
		want := (1e-3 + 1e-6*1000) * 3 // log2(8) = 3
		if d := c.Clock() - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("rank %d: allreduce cost %.9f, want %.9f", c.Rank(), c.Clock(), want)
		}
	})
}
