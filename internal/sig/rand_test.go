package sig

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's normalization (mod 2³¹−1,
// negatives wrapped, 0 → 89482311) has a boundary.
var edgeSeeds = []int64{
	0, 1, -1, lcgMod, -lcgMod, lcgMod - 1, 1 - lcgMod, 1 << 31, -1 << 31,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, zeroSeed, -zeroSeed, 2 * lcgMod,
}

// compareDraws makes n draws from got and want, the method of draw k
// picked by pick[k%len(pick)] (all Int63 when pick is empty), and fails
// at the first that differs.
func compareDraws(t *testing.T, seed int64, got, want *rand.Rand, n int, pick []byte) {
	t.Helper()
	for k := range n {
		var op byte
		if len(pick) > 0 {
			op = pick[k%len(pick)] % 6
		}
		var g, w uint64
		switch op {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 4:
			g, w = uint64(got.Intn(1000003)), uint64(want.Intn(1000003))
		case 5:
			g, w = uint64(got.Int31n(7)), uint64(want.Int31n(7))
		}
		if g != w {
			t.Fatalf("seed %d, draw %d (method %d): got %#x, math/rand %#x", seed, k, op, g, w)
		}
	}
}

// TestSourceMatchesMathRand holds NewRand to its contract: every method
// returns what rand.New(rand.NewSource(seed)) does, over the edge seeds
// and 300 random ones, through more than one full turn of the register.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(20151))
	for range 300 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	pick := []byte{0, 1, 2, 3, 4, 0, 3, 3, 5, 1, 2}
	for _, seed := range seeds {
		compareDraws(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)), 3000, pick)
	}
}

// TestSourceReseed checks that re-seeding a used Source restarts the
// stream exactly, through rand.Rand.Seed as the render scratch does.
func TestSourceReseed(t *testing.T) {
	got := rand.New(new(Source))
	for _, seed := range []int64{5, -9, 1 << 40, 0} {
		got.Seed(seed)
		compareDraws(t, seed, got, rand.New(rand.NewSource(seed)), 700, []byte{0, 1})
	}
}

// checkInt63s compares Int63s(seed) with the first n Int63 draws of
// math/rand's stream.
func checkInt63s(t *testing.T, seed int64, n int) {
	t.Helper()
	got := make([]int64, n)
	Int63s(seed, got)
	want := rand.New(rand.NewSource(seed))
	for j, g := range got {
		if w := want.Int63(); g != w {
			t.Fatalf("Int63s(%d) with n = %d: output %d is %d, math/rand %d", seed, n, j, g, w)
		}
	}
}

// TestInt63sMatchesStream checks Int63s on both sides of the two-word
// limit (273) and past it.
func TestInt63sMatchesStream(t *testing.T) {
	for _, n := range []int{0, 1, 272, 273, 274, 1000} {
		for _, seed := range append([]int64{42, 1 << 50, -77}, edgeSeeds...) {
			checkInt63s(t, seed, n)
		}
	}
}

// FuzzSourceMatchesMathRand compares NewRand with math/rand for any seed,
// draw count and sequence of methods, and Int63s with the stream's first
// Int63 draws.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(700), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(0), uint16(10), []byte{3})
	f.Add(int64(math.MinInt64), uint16(1300), []byte{1, 1, 0})
	f.Add(int64(lcgMod), uint16(300), []byte(nil))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, pick []byte) {
		compareDraws(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)), int(n%2048), pick)
		checkInt63s(t, seed, int(n%300))
	})
}

// BenchmarkSourceSeed times one seeding, Source's against math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("sig", func(b *testing.B) {
		var s Source
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
}
