package experiments

import (
	"testing"
)

func TestRunSmokeAllFormulations(t *testing.T) {
	for _, f := range []Formulation{Sync, Partitioned, Hybrid} {
		res := Run(Spec{Formulation: f, Records: 2000, Procs: 4})
		if res.ModeledSeconds <= 0 {
			t.Errorf("%s: non-positive modeled time", f)
		}
		if res.Tree.Nodes == 0 {
			t.Errorf("%s: empty tree", f)
		}
		if res.Traffic.Msgs == 0 {
			t.Errorf("%s: no traffic at P=4", f)
		}
	}
}

func TestRunContinuousConfiguration(t *testing.T) {
	res := Run(Spec{Formulation: Hybrid, Records: 2000, Procs: 4, Continuous: true})
	if res.Tree.Nodes == 0 || res.ModeledSeconds <= 0 {
		t.Fatalf("continuous run degenerate: %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := Spec{Formulation: Hybrid, Records: 3000, Procs: 8}
	a, b := Run(spec), Run(spec)
	if a.ModeledSeconds != b.ModeledSeconds || a.Tree != b.Tree || a.Traffic != b.Traffic {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestSpeedupSeriesBaseline(t *testing.T) {
	spec := Spec{Formulation: Sync, Records: 2000}
	pts := SpeedupSeries(spec, []int{1, 2, 4})
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].P != 1 || pts[0].Speedup != 1.0 {
		t.Fatalf("P=1 speedup %v, want exactly 1.0", pts[0].Speedup)
	}
	for _, pt := range pts {
		if pt.Seconds <= 0 || pt.Speedup <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
}

func TestFig7SweepShape(t *testing.T) {
	pts := Fig7(2000, 4, []float64{0.5, 1, 2}, Spec{})
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i, pt := range pts {
		if pt.Seconds <= 0 {
			t.Fatalf("point %d degenerate: %+v", i, pt)
		}
	}
}

func TestFig9PointsAndGrowth(t *testing.T) {
	pts := Fig9(500, []int{1, 2, 4}, Spec{})
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i, pt := range pts {
		if pt.Records != 500*pt.P {
			t.Fatalf("point %d: %d records for P=%d", i, pt.Records, pt.P)
		}
	}
}

func TestEfficiencyAtBounds(t *testing.T) {
	e := EfficiencyAt(4000, 4, Spec{})
	if e <= 0 || e > 1.2 {
		t.Fatalf("efficiency %v out of plausible range", e)
	}
}

// TestSamplingMotivation: the introduction's claim — small samples lose
// test accuracy relative to the full training set.
func TestSamplingMotivation(t *testing.T) {
	pts := Sampling(12000, []float64{0.02, 0.1, 1.0}, 2024)
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	small, full := pts[0].TestAcc, pts[2].TestAcc
	if full < small+0.01 {
		t.Fatalf("full training (%.4f) not better than a 2%% sample (%.4f)", full, small)
	}
	for _, pt := range pts {
		if pt.TestAcc < 0.5 || pt.TestAcc > 1 {
			t.Fatalf("degenerate accuracy %+v", pt)
		}
	}
}
