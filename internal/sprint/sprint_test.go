package sprint

import (
	"fmt"
	"testing"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/quest"
	"partree/internal/tree"
)

// TestSprintMatchesHunt: SPRINT's pre-sorted attribute lists plus
// hash-table splitting must grow exactly the tree of the per-node-sorting
// C4.5-style builder, across criteria, split arities and functions.
func TestSprintMatchesHunt(t *testing.T) {
	for _, fn := range []int{1, 2, 6, 7, 10} {
		d, err := quest.Generate(quest.Config{Function: fn, Seed: uint64(fn) * 17}, 1200)
		if err != nil {
			t.Fatal(err)
		}
		for _, binary := range []bool{true, false} {
			for _, crit := range []criteria.Criterion{criteria.Entropy, criteria.Gini} {
				t.Run(fmt.Sprintf("fn%d/binary=%v/%v", fn, binary, crit), func(t *testing.T) {
					o := tree.Options{Binary: binary, Criterion: crit, MaxDepth: 8}
					want := tree.BuildHunt(d, o)
					got := Build(d, o)
					if diff := tree.Diff(want, got); diff != "" {
						t.Fatalf("SPRINT differs from Hunt: %s", diff)
					}
				})
			}
		}
	}
}

func TestSprintWeather(t *testing.T) {
	w := dataset.Weather()
	o := tree.Options{Criterion: criteria.Entropy}
	want := tree.BuildHunt(w, o)
	got := Build(w, o)
	if diff := tree.Diff(want, got); diff != "" {
		t.Fatalf("weather tree differs: %s", diff)
	}
	if acc := got.Accuracy(w); acc != 1 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestSprintListsStaySorted(t *testing.T) {
	// White-box: after an expansion, children's continuous lists must
	// remain sorted without re-sorting — the point of the algorithm's
	// hash-table splitting phase.
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 5}, 400)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Schema
	o := tree.Options{Binary: true}.WithDefaults()
	root := &tree.Node{Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	lists := make([][]Entry, s.NumAttrs())
	for a, attr := range s.Attrs {
		list := make([]Entry, d.Len())
		for i := range list {
			v := 0.0
			if attr.Kind == dataset.Continuous {
				v = d.Cont[a][i]
			} else {
				v = float64(d.Cat[a][i])
			}
			list[i] = Entry{Value: v, RID: d.RID[i], Class: d.Class[i]}
		}
		if attr.Kind == dataset.Continuous {
			sortEntries(list)
		}
		lists[a] = list
	}
	children := expand(nodeLists{node: root, lists: lists}, s, o, tree.NewIDGen(1))
	if len(children) == 0 {
		t.Fatal("root did not split")
	}
	for _, child := range children {
		for a, attr := range s.Attrs {
			if attr.Kind != dataset.Continuous {
				continue
			}
			list := child.lists[a]
			for i := 1; i < len(list); i++ {
				if list[i].Value < list[i-1].Value {
					t.Fatalf("child list for %q lost sorted order at %d", attr.Name, i)
				}
			}
		}
	}
}

func TestSprintPureNode(t *testing.T) {
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "v", Kind: dataset.Continuous}},
		Classes: []string{"only", "other"},
	}
	d := dataset.New(s, 5)
	rec := dataset.NewRecord(s)
	for i := 0; i < 5; i++ {
		rec.Cont[0] = float64(i)
		rec.Class = 0
		rec.RID = int64(i)
		d.Append(rec)
	}
	tr := Build(d, tree.Options{})
	if !tr.Root.IsLeaf() || tr.Root.Class != 0 {
		t.Fatalf("pure data must yield a single leaf, got %+v", tr.Root)
	}
}

func TestSprintEmptyDataset(t *testing.T) {
	s := quest.Schema()
	d := dataset.New(s, 0)
	tr := Build(d, tree.Options{})
	if !tr.Root.IsLeaf() || tr.Root.N != 0 {
		t.Fatalf("empty data must yield an empty leaf, got %+v", tr.Root)
	}
}

func TestScanContinuousMatchesCriteria(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 7, Seed: 23}, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Build the sorted list for loan and compare the scan against
	// criteria.BestContinuousSplit on the same ordering.
	tr := Build(d, tree.Options{Binary: true, MaxDepth: 1})
	_ = tr
	list := make([]Entry, d.Len())
	for i := range list {
		list[i] = Entry{Value: d.Cont[quest.Loan][i], RID: d.RID[i], Class: d.Class[i]}
	}
	sortEntries(list)
	values := make([]float64, len(list))
	classes := make([]int32, len(list))
	for i, e := range list {
		values[i] = e.Value
		classes[i] = e.Class
	}
	dist := make([]int64, 2)
	for _, e := range list {
		dist[e.Class]++
	}
	var sc kernel.ContScanner
	sc.Reset(dist, int64(len(list)), criteria.Gini)
	for _, e := range list {
		sc.Add(e.Value, e.Class)
	}
	gotThresh, gotScore, gotOK := sc.Best()
	want, wantOK := criteria.BestContinuousSplit(values, classes, 2, criteria.Gini)
	if gotOK != wantOK || gotThresh != want.Thresh || gotScore != want.Score {
		t.Fatalf("scan (%v, %v, %v) vs criteria (%v, %v)", gotThresh, gotScore, gotOK, want, wantOK)
	}
}

func sortEntries(list []Entry) {
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && (list[j].Value < list[j-1].Value ||
			(list[j].Value == list[j-1].Value && list[j].RID < list[j-1].RID)); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}
