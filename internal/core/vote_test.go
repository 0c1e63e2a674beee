package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/quest"
	"partree/internal/tree"
)

// genWide produces a raw Quest dataset widened to attrs attributes: the
// nine paper attributes (which alone determine the class) plus synthetic
// noise extras — the substrate on which voting must concentrate the
// reduction on the informative attributes.
func genWide(t testing.TB, n, attrs int, seed uint64) *dataset.Dataset {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: seed, Attrs: attrs}, n)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

func wideOptions() Options {
	return Options{Tree: tree.Options{Binary: true, MaxDepth: 8},
		SyncEveryNodes: 8, MicroBins: 32, NodeBins: 6}
}

// TestVotedExactAtLargeK pins the exactness boundary: with K at least
// the attribute count the voted gate short-circuits to the exact code
// path, so every formulation must produce not just the same tree but
// the same modeled clock and the same per-phase × per-collective
// breakdown table, on discrete and continuous data, at non-power-of-two
// processor counts included.
func TestVotedExactAtLargeK(t *testing.T) {
	type datum struct {
		name string
		d    *dataset.Dataset
		o    Options
	}
	data := []datum{
		{"discrete", genDiscrete(t, 1500, 2, 42),
			Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}},
		{"continuous", genContinuous(t, 1200, 2, 7),
			Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8, MicroBins: 32, NodeBins: 6}},
	}
	for _, dt := range data {
		nA := dt.d.Schema.NumAttrs()
		for _, f := range formulations {
			for _, p := range []int{1, 3, 6} {
				t.Run(fmt.Sprintf("%s/%s/p%d", dt.name, f.name, p), func(t *testing.T) {
					exact, ew := runParallel(t, f.build, dt.d, p, dt.o)
					vo := dt.o
					vo.Tree.Vote = kernel.VoteOptions{K: nA}
					voted, vw := runParallel(t, f.build, dt.d, p, vo)
					if diff := tree.Diff(exact, voted); diff != "" {
						t.Fatalf("K=numAttrs tree differs from exact: %s", diff)
					}
					if ec, vc := ew.MaxClock(), vw.MaxClock(); ec != vc {
						t.Fatalf("modeled clock %.9f != exact %.9f", vc, ec)
					}
					if et, vt := ew.Breakdown().Table(), vw.Breakdown().Table(); et != vt {
						t.Fatalf("breakdown differs from exact:\n--- exact ---\n%s\n--- voted ---\n%s", et, vt)
					}
				})
			}
		}
	}
}

// TestVotedReducesTraffic: on a wide schema an active vote (K well below
// the attribute count) must strictly cut the modeled communication
// volume of every formulation while still growing a non-trivial tree,
// and its breakdown must carry the two vote phases.
func TestVotedReducesTraffic(t *testing.T) {
	d := genWide(t, 2000, 64, 17)
	o := wideOptions()
	for _, f := range formulations {
		t.Run(f.name, func(t *testing.T) {
			_, ew := runParallel(t, f.build, d, 4, o)
			vo := o
			vo.Tree.Vote = kernel.VoteOptions{K: 4}
			voted, vw := runParallel(t, f.build, d, 4, vo)
			eb, vb := ew.Traffic().Bytes, vw.Traffic().Bytes
			if vb >= eb {
				t.Fatalf("voted build moved %d bytes, exact %d — no reduction", vb, eb)
			}
			if st := voted.Stats(); st.Nodes < 3 {
				t.Fatalf("voted tree degenerate: %+v", st)
			}
			tbl := vw.Breakdown().Table()
			for _, phase := range []string{PhaseVoteBallot, PhaseVoteHist} {
				if !strings.Contains(tbl, phase) {
					t.Fatalf("voted breakdown lacks phase %q:\n%s", phase, tbl)
				}
			}
		})
	}
}

// TestVotedSubtractionInvariance: the voted synchronous path composes
// with sibling subtraction — elections are a pure function of globally
// identical data, deliberately independent of the rank-local reuse
// cache, so the tree must be bit-identical with the reuse layer on and
// off, and subtraction must still save bytes under voting.
func TestVotedSubtractionInvariance(t *testing.T) {
	d := genWide(t, 2000, 32, 23)
	base := wideOptions()
	base.Tree.Vote = kernel.VoteOptions{K: 3}
	for _, p := range []int{3, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			plain, pw := runParallel(t, BuildSync, d, p, base)
			so := base
			so.Tree.Reuse = kernel.Options{Subtraction: true}
			sub, sw := runParallel(t, BuildSync, d, p, so)
			if diff := tree.Diff(plain, sub); diff != "" {
				t.Fatalf("voted tree changed under subtraction: %s", diff)
			}
			if pb, sb := pw.Traffic().Bytes, sw.Traffic().Bytes; sb >= pb {
				t.Fatalf("subtraction under voting saved nothing: %d vs %d bytes", sb, pb)
			}
		})
	}
}

// TestVotedSerialMatchesParallelK: a single rank is a one-voter
// electorate whose top-k always contains its own argmax, but the
// candidate *budget* still clips the usable set; what the exactness
// boundary guarantees is K ≥ numAttrs (TestVotedExactAtLargeK) and
// P = 1 (here): a serial voted build short-circuits and equals serial
// exact bit-for-bit even with a tiny K.
func TestVotedSerialMatchesParallelK(t *testing.T) {
	d := genWide(t, 1500, 32, 31)
	o := wideOptions()
	for _, f := range formulations {
		t.Run(f.name, func(t *testing.T) {
			exact, _ := runParallel(t, f.build, d, 1, o)
			vo := o
			vo.Tree.Vote = kernel.VoteOptions{K: 2}
			voted, _ := runParallel(t, f.build, d, 1, vo)
			if diff := tree.Diff(exact, voted); diff != "" {
				t.Fatalf("serial voted tree differs from serial exact: %s", diff)
			}
		})
	}
}

// TestVotedResumeAfterHalt: a voted build killed wholesale mid-level
// must resume from the durable cut to the exact tree the fault-free
// voted run grows — the election families ride in the PTLV v2
// checkpoint section, so a resumed level elects identically.
func TestVotedResumeAfterHalt(t *testing.T) {
	d := genWide(t, 1500, 32, 29)
	o := wideOptions()
	o.Tree.Vote = kernel.VoteOptions{K: 3}
	const p = 4
	want, _ := runParallel(t, BuildSync, d, p, o)
	for _, n := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("sync/halt-op%d", n), func(t *testing.T) {
			dir := t.TempDir()
			crashProcess(t, BuildSync, d, p, o, dir, n)
			trees, _, stats := resumeProcess(t, BuildSync, d, p, o, dir)
			requireAllEqual(t, want, trees)
			if stats.Restores == 0 {
				t.Fatalf("voted resume restored nothing: %+v", stats)
			}
		})
	}
	// The restart-from-root builders re-run their deterministic voted
	// schedule from the init cut.
	t.Run("hybrid/halt-op4", func(t *testing.T) {
		wantH, _ := runParallel(t, BuildHybrid, d, p, o)
		dir := t.TempDir()
		crashProcess(t, BuildHybrid, d, p, o, dir, 4)
		trees, _, _ := resumeProcess(t, BuildHybrid, d, p, o, dir)
		requireAllEqual(t, wantH, trees)
	})
}

// TestLevelCkptVoteRoundTrip pins the PTLV v2 codec: vote families
// (including nil vs empty parent sets, which the sentinel must keep
// distinct) survive a round trip, and a version-1 payload — one without
// the trailing vote section — still decodes, yielding nil vote state.
func TestLevelCkptVoteRoundTrip(t *testing.T) {
	d := genDiscrete(t, 200, 2, 3)
	o := Options{Tree: tree.Options{Binary: true}}
	built := tree.BuildBFS(d, o.SerialOptions(d))
	ranges := [][2]float64{{0, 1}, {-2.5, 7.25}}
	vs := []voteFam{
		{lo: 0, n: 2, root: true},
		{lo: 2, n: 3, pAttrs: []int32{1, 4, 7}},
		{lo: 5, n: 1, pAttrs: []int32{}},
	}

	buf := encodeLevelCkpt(d, built.Root, nil, 3, 41, ranges, vs)
	lk, err := decodeLevelCkpt(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if lk.level != 3 || lk.idsNext != 41 || len(lk.ranges) != 2 {
		t.Fatalf("header fields lost: %+v", lk)
	}
	if lk.vote == nil || len(lk.vote) != len(vs) {
		t.Fatalf("vote section lost: %+v", lk.vote)
	}
	for i, f := range lk.vote {
		w := vs[i]
		if f.lo != w.lo || f.n != w.n || f.root != w.root {
			t.Fatalf("fam %d: got %+v want %+v", i, f, w)
		}
		if (f.pAttrs == nil) != (w.pAttrs == nil) {
			t.Fatalf("fam %d: nil-ness of pAttrs not preserved: got %v want %v", i, f.pAttrs, w.pAttrs)
		}
		if len(f.pAttrs) != len(w.pAttrs) {
			t.Fatalf("fam %d: pAttrs %v want %v", i, f.pAttrs, w.pAttrs)
		}
		for j := range f.pAttrs {
			if f.pAttrs[j] != w.pAttrs[j] {
				t.Fatalf("fam %d: pAttrs %v want %v", i, f.pAttrs, w.pAttrs)
			}
		}
	}

	// nil vote state encodes an empty family section and decodes to nil.
	buf0 := encodeLevelCkpt(d, built.Root, nil, 2, 11, nil, nil)
	if lk0, err := decodeLevelCkpt(buf0); err != nil || lk0.vote != nil {
		t.Fatalf("nil vote state: err=%v vote=%+v", err, lk0.vote)
	}

	// A v1 payload is buf0 without its (empty) vote section, version
	// patched back to 1 — the pre-vote layout byte for byte.
	v1 := append([]byte(nil), buf0[:len(buf0)-4]...)
	binary.LittleEndian.PutUint32(v1[len(levelCkptMagic):], 1)
	lk1, err := decodeLevelCkpt(v1)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if lk1.vote != nil {
		t.Fatalf("v1 cut decoded vote state: %+v", lk1.vote)
	}
	if lk1.level != 2 || lk1.idsNext != 11 {
		t.Fatalf("v1 header fields lost: %+v", lk1)
	}

	// A v1 payload carrying a vote section must be rejected as trailing
	// bytes — the section is a v2 construct.
	bad := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(bad[len(levelCkptMagic):], 1)
	if _, err := decodeLevelCkpt(bad); err == nil {
		t.Fatal("v1 payload with trailing vote section decoded without error")
	}
}
