package emsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawProbe writes the first NormFloat64 of its child stream to dst[at],
// so a render shows which stream each component was handed.
type drawProbe struct{ at int }

func (p *drawProbe) Name() string { return fmt.Sprintf("probe %d", p.at) }
func (p *drawProbe) Render(dst []complex128, ctx *Context) {
	dst[p.at] += complex(ctx.Rand.NormFloat64(), 0)
}

// TestChildSeedsMatchRootStream holds the positional child-seed contract:
// component i's seed is the i-th Int63 of a math/rand generator seeded
// with the capture's seed, and its stream is that seed's math/rand stream.
// 29 components take the two-word path of sig.Int63s, 300 its fallback.
func TestChildSeedsMatchRootStream(t *testing.T) {
	for _, ncomp := range []int{29, 300} {
		s := &Scene{}
		for i := range ncomp {
			s.Add(&drawProbe{at: i})
		}
		for _, seed := range []int64{0, 1, -5, 1 << 40, math.MinInt64} {
			cap := Capture{Band: Band{Center: 1e6, SampleRate: 1e5}, N: ncomp, Seed: seed}
			sc := scratchPool.Get().(*renderScratch)
			sc.begin(cap, len(s.Components))
			root := rand.New(rand.NewSource(seed))
			want := make([]int64, ncomp)
			for i := range want {
				want[i] = root.Int63()
				if sc.seeds[i] != want[i] {
					t.Fatalf("%d components, seed %d: child seed %d is %d, root stream %d",
						ncomp, seed, i, sc.seeds[i], want[i])
				}
			}
			sc.end()
			got := s.Render(cap)
			for i, w := range want {
				if x := rand.New(rand.NewSource(w)).NormFloat64(); real(got[i]) != x {
					t.Fatalf("%d components, seed %d: component %d drew %v, its math/rand stream %v",
						ncomp, seed, i, real(got[i]), x)
				}
			}
		}
	}
}

// refTones is deriveTones on a math/rand generator, as it was derived
// before the tone draws came from sig.Int63s.
func refTones(seed int64, span float64) stationTones {
	r := rand.New(rand.NewSource(seed))
	var tones stationTones
	var ampSum float64
	for i := range tones {
		tones[i].f = 300 + span*r.Float64()
		tones[i].amp = 0.3 + 0.7*r.Float64()
		ampSum += tones[i].amp
	}
	for i := range tones {
		tones[i].amp /= ampSum
	}
	return tones
}

// TestDeriveTonesMatchesMathRand checks the station tone tables against
// their math/rand derivation, bit for bit.
func TestDeriveTonesMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(4))
	for range 300 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		if got, want := deriveTones(seed, 3700), refTones(seed, 3700); got != want {
			t.Fatalf("seed %d: tones %v, math/rand derivation %v", seed, got, want)
		}
	}
}

// prepSink keeps Prepare's result reachable, as a plan does.
var prepSink any

// TestAMStationPrepareAllocs pins a station's plan-build cost to its tone
// table: deriving it takes no generator (a fresh one would add a 4.9 KB
// source and its rand.Rand).
func TestAMStationPrepareAllocs(t *testing.T) {
	st := &AMStation{Call: "A", Freq: 700e3, PowerMw: 1e-9, AudioSeed: 12}
	band := Band{Center: 700e3, SampleRate: 1e5}
	if a := testing.AllocsPerRun(100, func() { prepSink = st.Prepare(band, 4096) }); a != 1 {
		t.Fatalf("AMStation.Prepare made %.0f allocations, want 1 (its tone table)", a)
	}
}
