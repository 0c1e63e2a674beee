// Pins for the attribute-list builders and the exact-split baselines: the
// sha256 over the serialized tree of serial Hunt, SLIQ and SPRINT, and
// over the tree, every rank's modeled clock and every rank's sorted
// breakdown cells of ScalParC, parallel SPRINT and the attribute-
// partitioned (vertical) formulation, on a 24-attribute Quest schema, raw
// and paper-discretized. The binary-split rows cover statistics reuse off
// and ReuseAll and voted split selection off and at k = 3 (Hunt and
// vertical read neither, so they run k = 0, reuse off only); one
// multiway row per builder and P (k = 0, reuse off) covers the
// categorical multiway test. Hashing each rank's cells, not only the
// summed table, makes a stray zero cell show. The identity tests compare
// these builders with the serial trees inside one binary; this compares
// across commit boundaries, so a change that moves Hunt and its followers
// together, or changes how the attribute lists are built or what they
// charge, is noticed.
package partree_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
	"partree/internal/quest"
	"partree/internal/tree"
)

func TestAttributeListPin(t *testing.T) {
	want := map[string]string{
		"discrete=false/sliq/p1/k0/reuse=off":                     "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/sliq/p1/k0/reuse=all":                     "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/sprint/p1/k0/reuse=off":                   "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/sprint/p1/k0/reuse=all":                   "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/scalparc/p3/k0/reuse=off":                 "5107f1be97d836d774bd5c275d3be84045d46b6f3b7f92493cd4bf159a5ff01d",
		"discrete=false/scalparc/p3/k0/reuse=all":                 "f60d0f85abeaf48080ba073cc50d56db475c8111c2ae9b8b73c8fb7724fe5be5",
		"discrete=false/scalparc/p3/k3/reuse=off":                 "5e09b6f1ee02d5b5acc348c76c2a62dc9a2a3b5ca23452dd7a11e896610aa844",
		"discrete=false/scalparc/p3/k3/reuse=all":                 "b63271cda791b9051d68c9df16b98d79cd6112c3265eaecbb303fe4f11a9fefb",
		"discrete=false/scalparc/p4/k0/reuse=off":                 "987093683ff1ba0fb52fd036a58a7cbebd313cbe45dbea391c1bf850630bb58f",
		"discrete=false/scalparc/p4/k0/reuse=all":                 "b3892c5e60070e4c1ba42c8de0bf8cc6c755e7a70dd06fdea4483babfafef697",
		"discrete=false/scalparc/p4/k3/reuse=off":                 "f057d8c833ac0e7d0487e5d16a6115c3dee6ed3ca87f395ad890bd4790af1851",
		"discrete=false/scalparc/p4/k3/reuse=all":                 "fb1486eb583781c832c51eb552d3d43500585aa0f06f49e26048cb1d8719a3e5",
		"discrete=false/parallel-sprint/p3/k0/reuse=off":          "5ff20543277686774a5b13bc981f2f176db42652ad0dd68a746bbfd28c50b49a",
		"discrete=false/parallel-sprint/p3/k0/reuse=all":          "3732ce97c2a19fe70b50d7f48f4ae35ef9f973db17fddf43ceea3bce48588cf4",
		"discrete=false/parallel-sprint/p3/k3/reuse=off":          "4dda677d6e4bc2bd9099ee5af851934c20bdca7231954a17c75f9b49f0afd586",
		"discrete=false/parallel-sprint/p3/k3/reuse=all":          "5dbd429135cd9125bad2399f94ae675b58ac5f651e3f6ed96f016024cd95e69f",
		"discrete=false/parallel-sprint/p4/k0/reuse=off":          "3508388b9633ea3c35769480bff455e94aea3f4110f0a1c5c129329410b70534",
		"discrete=false/parallel-sprint/p4/k0/reuse=all":          "b5f39d4aecab2ac7ece4673e4456095f1d9b2fcbe09074e1f084169296d2e25e",
		"discrete=false/parallel-sprint/p4/k3/reuse=off":          "9c6280754de79923148954bd9b9d04797a9ba6ad966c7dbb77e8bf57a723ea80",
		"discrete=false/parallel-sprint/p4/k3/reuse=all":          "5981ee233f07ff616996713dfa072208e8440b57b9447cb472e6dfe8e4d9e4d6",
		"discrete=true/sliq/p1/k0/reuse=off":                      "062de766284a51322e05db52eec0bb0b05a84bd4cd5d8399b9e1ed54a8eb74cb",
		"discrete=true/sliq/p1/k0/reuse=all":                      "062de766284a51322e05db52eec0bb0b05a84bd4cd5d8399b9e1ed54a8eb74cb",
		"discrete=true/sprint/p1/k0/reuse=off":                    "062de766284a51322e05db52eec0bb0b05a84bd4cd5d8399b9e1ed54a8eb74cb",
		"discrete=true/sprint/p1/k0/reuse=all":                    "062de766284a51322e05db52eec0bb0b05a84bd4cd5d8399b9e1ed54a8eb74cb",
		"discrete=true/scalparc/p3/k0/reuse=off":                  "ae3f995326a573a0cf6e5d92a570e75156dd9c781ca67ec1e48af480a3eb7504",
		"discrete=true/scalparc/p3/k0/reuse=all":                  "487ab6af0201b6f6a8b0f92925d6b59060f57cce826efc8f25c1351ef0272c7d",
		"discrete=true/scalparc/p3/k3/reuse=off":                  "bb8ad5827654c6c9026ab8b1e9e65bab2c0096d7ebb8fbd018ebcf591a87ba19",
		"discrete=true/scalparc/p3/k3/reuse=all":                  "7a6ff1fac3c17c9ad475cd31744e9d3344581b5b5a73e4052bed7614035e32fd",
		"discrete=true/scalparc/p4/k0/reuse=off":                  "05dc1d9aed8b4c28ce56c27da676a733afc3b5815d3e1b1cb05198669c9f1501",
		"discrete=true/scalparc/p4/k0/reuse=all":                  "46d383d289e16a0eb51cb6fb7155db79575444b166da6eb8a2afbdab7386237b",
		"discrete=true/scalparc/p4/k3/reuse=off":                  "38de833cae90bbffc2a987b3b8de6593aac0e0cb1fe1c27bfa265ab3ea7e4448",
		"discrete=true/scalparc/p4/k3/reuse=all":                  "dd2a054d1f45c9967648d60e4f2c675a2400cf01118d54f2d00da9591d35f374",
		"discrete=true/parallel-sprint/p3/k0/reuse=off":           "7d24b20ef95b60a52707cea92e051af79a083cd9e5fe6ba8e51223582a4e0b10",
		"discrete=true/parallel-sprint/p3/k0/reuse=all":           "e094453634e476e5afa179f49631c4da8ec2e928691f49352d74ecd2385965c8",
		"discrete=true/parallel-sprint/p3/k3/reuse=off":           "4fc009f3397ddb38761e31f43515ffabe4651e35bfe0bc45b1b46e112ab8e5d7",
		"discrete=true/parallel-sprint/p3/k3/reuse=all":           "226a57320c620af5f049a487919938bd3f2d8282432ded02f4e936c7ef1dfd0b",
		"discrete=true/parallel-sprint/p4/k0/reuse=off":           "f2a00cef5d89c3879f0c43382f2dad862ed2529b81bfd53aa8528c2a1eaf9f62",
		"discrete=true/parallel-sprint/p4/k0/reuse=all":           "d835c2cf63e33e1ad8c5e6580d3d9ca1853d729aa5b841f5908a3bb4d58c1893",
		"discrete=true/parallel-sprint/p4/k3/reuse=off":           "4038ed4a229a37ddb286c986deed55341de4347898673995fb766dd15e13d9c9",
		"discrete=true/parallel-sprint/p4/k3/reuse=all":           "241e3382d5df1b123249b87cca592344bcd59a3c65eb7599eeeb593eb3388fe8",
		"discrete=false/hunt/p1/k0/reuse=off":                     "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/multiway/hunt/p1/k0/reuse=off":            "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/multiway/parallel-sprint/p3/k0/reuse=off": "5ff20543277686774a5b13bc981f2f176db42652ad0dd68a746bbfd28c50b49a",
		"discrete=false/multiway/parallel-sprint/p4/k0/reuse=off": "3508388b9633ea3c35769480bff455e94aea3f4110f0a1c5c129329410b70534",
		"discrete=false/multiway/scalparc/p3/k0/reuse=off":        "5107f1be97d836d774bd5c275d3be84045d46b6f3b7f92493cd4bf159a5ff01d",
		"discrete=false/multiway/scalparc/p4/k0/reuse=off":        "987093683ff1ba0fb52fd036a58a7cbebd313cbe45dbea391c1bf850630bb58f",
		"discrete=false/multiway/sliq/p1/k0/reuse=off":            "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/multiway/sprint/p1/k0/reuse=off":          "04620c74a11e3e378b10ecd89740d6b7397518406fd57d84f9da3ce73e9e94aa",
		"discrete=false/multiway/vertical/p3/k0/reuse=off":        "dd6f1681fdb9507dadceb72a0dcd144e67a3f7d4a053fda1c374a95ac8a6efe9",
		"discrete=false/multiway/vertical/p4/k0/reuse=off":        "5685c69063d42a81b727caf03db726fe4a8b179022e08acc3bef51f664269693",
		"discrete=false/vertical/p3/k0/reuse=off":                 "dd6f1681fdb9507dadceb72a0dcd144e67a3f7d4a053fda1c374a95ac8a6efe9",
		"discrete=false/vertical/p4/k0/reuse=off":                 "5685c69063d42a81b727caf03db726fe4a8b179022e08acc3bef51f664269693",
		"discrete=true/hunt/p1/k0/reuse=off":                      "062de766284a51322e05db52eec0bb0b05a84bd4cd5d8399b9e1ed54a8eb74cb",
		"discrete=true/multiway/hunt/p1/k0/reuse=off":             "7f6a8b262901b04819a1e3bae18c3f196728eb06d11f4526d1632773f2c3cfbd",
		"discrete=true/multiway/parallel-sprint/p3/k0/reuse=off":  "584626235b52eff58be9c3c3f276b75e98cb10e72aae11f5be09c82309fad9eb",
		"discrete=true/multiway/parallel-sprint/p4/k0/reuse=off":  "70ac1796b95cf583cba9f2f46e4ba55105fb3df1a4550ed13e504f896c30fa6a",
		"discrete=true/multiway/scalparc/p3/k0/reuse=off":         "9328bdb856e2665670a674cfe49e9d677e9918e029975e31877d5272b0076f8f",
		"discrete=true/multiway/scalparc/p4/k0/reuse=off":         "cb46d5ded3cfffad76eefc38cb1bfd08a8924e1e9068de55eb111dcbfab04503",
		"discrete=true/multiway/sliq/p1/k0/reuse=off":             "7f6a8b262901b04819a1e3bae18c3f196728eb06d11f4526d1632773f2c3cfbd",
		"discrete=true/multiway/sprint/p1/k0/reuse=off":           "7f6a8b262901b04819a1e3bae18c3f196728eb06d11f4526d1632773f2c3cfbd",
		"discrete=true/multiway/vertical/p3/k0/reuse=off":         "8d59799c8b6c847235f5c3d121dfe56db97926ed9d1ca9449f4d3752711d4f32",
		"discrete=true/multiway/vertical/p4/k0/reuse=off":         "ef2210233433b739878ed45bf4283cdff071aed0fd14675851dbbff44a0b6f1f",
		"discrete=true/vertical/p3/k0/reuse=off":                  "e415a73bd8c476edd0bf3bf1aea6b91cbae4a84eb7595ca55d355ea46736a50d",
		"discrete=true/vertical/p4/k0/reuse=off":                  "245f8f8d9eabe91713af5af95ea21842dd88d4d644bda27d23a74f86038d41f1",
	}
	raw, err := quest.Generate(quest.Config{Function: 2, Seed: 53, Attrs: 24}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for _, discrete := range []bool{false, true} {
		d := raw
		if discrete {
			d = discretize.UniformPaper(raw, quest.PaperBins(), quest.Ranges())
		}
		for _, name := range []string{"hunt", "sliq", "sprint", "scalparc", "parallel-sprint", "vertical"} {
			b, _ := build.Lookup(name)
			// The serial builders run without a world and ignore the vote;
			// Hunt and vertical read neither the vote nor reuse.
			procs, ks, reuses := []int{1}, []int{0}, pinListReuses
			if b.MultiRank {
				procs, ks = []int{3, 4}, []int{0, 3}
			}
			if name == "hunt" || name == "vertical" {
				ks, reuses = []int{0}, pinListReuses[:1]
			}
			for _, p := range procs {
				for _, k := range ks {
					for _, ru := range reuses {
						key := fmt.Sprintf("discrete=%v/%s/p%d/k%d/reuse=%s", discrete, name, p, k, ru.name)
						t.Run(key, func(t *testing.T) {
							o := tree.Options{Binary: true, MaxDepth: 8, Reuse: ru.ro, Vote: kernel.VoteOptions{K: k}}
							checkListPin(t, build.Spec{Builder: name, Procs: p, Options: core.Options{Tree: o}}, d, want[key])
						})
					}
				}
				key := fmt.Sprintf("discrete=%v/multiway/%s/p%d/k0/reuse=off", discrete, name, p)
				t.Run(key, func(t *testing.T) {
					o := tree.Options{Binary: false, MaxDepth: 8}
					checkListPin(t, build.Spec{Builder: name, Procs: p, Options: core.Options{Tree: o}}, d, want[key])
				})
			}
		}
	}
}

// pinListReuses are the statistics-reuse settings of the binary rows.
var pinListReuses = []struct {
	name string
	ro   kernel.Options
}{{"off", kernel.Options{}}, {"all", kernel.ReuseAll()}}

// checkListPin hashes the tree of s on d and, for a multi-rank build,
// every rank's modeled clock and breakdown cells, and compares the sum
// with the pinned value.
func checkListPin(t *testing.T, s build.Spec, d *dataset.Dataset, want string) {
	t.Helper()
	tr, w := buildRAM(t, s, d)
	h := sha256.New()
	if err := tree.WriteJSON(h, tr); err != nil {
		t.Fatal(err)
	}
	if w != nil {
		for r := 0; r < s.Procs; r++ {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(w.Clock(r))))
			hashCells(h, w.RankBreakdown(r))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%d nodes: sha256 %s, pinned %s", tr.Stats().Nodes, got, want)
	}
}
