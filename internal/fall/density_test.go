package fall

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lock"
	"repro/internal/testcirc"
)

// refProbe is the 256-pattern dispatch probe run on its own: the first
// 4 words of the cone's densityRNG stream, positive on-count against
// the probe threshold.
func refProbe(cone *circuit.Circuit, h int) [2]bool {
	ins := cone.Inputs()
	m := len(ins)
	if m == 0 {
		return [2]bool{}
	}
	const words = 4
	n := float64(words * 64)
	threshold := densityThreshold(n, m, h)
	rng := densityRNG(cone.Len(), m)
	vals := make([]uint64, cone.Len())
	var on float64
	for w := 0; w < words; w++ {
		for _, in := range ins {
			vals[in] = rng.Uint64()
		}
		cone.Simulate(vals)
		on += float64(bits.OnesCount64(vals[cone.Outputs[0]]))
	}
	return [2]bool{on > threshold, n-on > threshold}
}

// refFilter is the density filter for one polarity run on its own:
// 256 words from a fresh densityRNG stream, rejecting as soon as the
// polarity's on-count exceeds the threshold.
func refFilter(cone *circuit.Circuit, h int, neg bool) bool {
	ins := cone.Inputs()
	m := len(ins)
	const words = 256
	threshold := densityThreshold(float64(words*64), m, h)
	rng := densityRNG(cone.Len(), m)
	vals := make([]uint64, cone.Len())
	count := 0.0
	for w := 0; w < words; w++ {
		for _, in := range ins {
			vals[in] = rng.Uint64()
		}
		cone.Simulate(vals)
		out := vals[cone.Outputs[0]]
		if neg {
			out = ^out
		}
		count += float64(bits.OnesCount64(out))
		if count > threshold {
			return false
		}
	}
	return true
}

// TestSampleDensityMatchesSeparatePasses: the single two-polarity
// density pass must give, for every node, the dispatch probe and the
// per-polarity filter verdicts that separate runs give. The nodes of a
// locked random circuit cover sparse, dense and mixed cones, and small
// h values move the thresholds across them.
func TestSampleDensityMatchesSeparatePasses(t *testing.T) {
	orig := testcirc.Random(rand.New(rand.NewSource(3)), 10, 120)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 10, H: 1, Seed: 4, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	c := lr.Locked
	var verdicts [2][2]int // [polarity][pass]
	for _, h := range []int{0, 1, 2} {
		for id := range c.Nodes {
			if c.Nodes[id].Type == circuit.Input {
				continue
			}
			for _, filter := range []bool{true, false} {
				p := newCandPrefixes(c, id)
				p.sampleDensity(h, filter)
				if want := refProbe(p.cone, h); p.dense != want {
					t.Fatalf("h=%d node %d: probe %v, separate %v", h, id, p.dense, want)
				}
				for pol, neg := range []bool{false, true} {
					want := true
					if filter && !p.keyDep {
						want = refFilter(p.cone, h, neg)
					}
					if p.pass[pol] != want {
						t.Fatalf("h=%d node %d neg=%v filter=%v: pass %v, separate %v", h, id, neg, filter, p.pass[pol], want)
					}
					if filter && !p.keyDep {
						verdicts[pol][b2i(want)]++
					}
				}
			}
		}
	}
	// Both verdicts must occur for both polarities, or the comparison
	// proves little.
	for pol := range verdicts {
		for pass := range verdicts[pol] {
			if verdicts[pol][pass] == 0 {
				t.Errorf("polarity %d never saw pass=%v", pol, pass == 1)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
