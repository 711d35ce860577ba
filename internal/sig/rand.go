package sig

import "math/rand"

// math/rand v1's generator: an additive lagged-Fibonacci register of 607
// words with tap 273 (Mitchell and Reeds), whose seeding expands the seed
// through the Lehmer LCG x ← 48271·x mod (2³¹−1).
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lcgMod   = 1<<31 - 1 // a Mersenne prime
	lcgMul   = 48271
	lcgMul3  = lcgMul * lcgMul * lcgMul % lcgMod // three LCG steps: one state word
	lcgSkip  = 21                                // word 0 starts at x[21]: math/rand discards x[1]…x[20]
	zeroSeed = 89482311                          // what a seed ≡ 0 mod 2³¹−1 starts the LCG at
)

// Source is math/rand v1's source, rand.NewSource's generator: for every
// seed its Int63 and Uint64 outputs equal rand.NewSource(seed)'s, so a
// rand.Rand on it returns exactly what one on rand.NewSource does, from
// every method. Only seeding differs. Word i of the seeded state is
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// for the LCG values x[k] = 48271ᵏ·x[0] mod (2³¹−1). math/rand steps the
// LCG 1,841 times in one dependent chain; Seed runs three independent
// chains, one per term, each stepping by 48271³ with a Mersenne reduction
// instead of a division, and costs about a quarter as much.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// cooked is math/rand's rngCooked table (the words XORed into a seeded
// state), recovered in init from the stream of rand.NewSource(1) rather
// than copied.
var cooked [rngLen]int64

// init recovers cooked: rand.NewSource(1)'s first 607 outputs determine
// its seeded state V through the lagged-Fibonacci recurrence run
// backwards, and cooked[i] is V[i] ^ word i of seed 1's LCG expansion.
//
// Output j adds vec[feed] and vec[tap] and stores the sum at feed, with
// feed = 333−j and tap = 606−j (mod 607). Up to j = 272 neither word has
// been written; from j = 273 on the tap reads the sum output j−273 stored.
func init() {
	ref := rand.NewSource(1).(rand.Source64)
	var x, v [rngLen]int64
	for j := range x {
		x[j] = int64(ref.Uint64())
	}
	for j := 334; j < rngLen; j++ {
		v[940-j] = x[j] - x[j-rngTap]
	}
	for j := rngTap; j < 334; j++ {
		v[333-j] = x[j] - x[j-rngTap]
	}
	for j := range rngTap {
		v[333-j] = x[j] - v[606-j]
	}
	a, b, c := lcgAt(lcgStart(1), 0)
	for i := range cooked {
		cooked[i] = v[i] ^ word(a, b, c)
		a, b, c = step3(a, b, c)
	}
}

// NewRand returns a generator seeded with seed whose every method returns
// exactly what rand.New(rand.NewSource(seed))'s does. It makes every
// seeded stream of the simulator apart from the render scratch's pooled
// child generator, which re-seeds a Source of its own.
func NewRand(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed implements rand.Source: the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	a, b, c := lcgAt(lcgStart(seed), 0)
	for i := range s.vec {
		s.vec[i] = word(a, b, c) ^ cooked[i]
		a, b, c = step3(a, b, c)
	}
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Int63s fills dst with the first len(dst) Int63 outputs of seed's stream.
// Output j < 273 is the sum of state words 333−j and 606−j, neither
// overwritten yet (see init), so such a prefix costs two words per output
// instead of a full seeding. A longer one seeds a full Source.
func Int63s(seed int64, dst []int64) {
	n := len(dst)
	if n > rngTap {
		var s Source
		s.Seed(seed)
		for j := range dst {
			dst[j] = s.Int63()
		}
		return
	}
	// Walk j downwards, so both words' indices rise as the LCG steps.
	x0 := lcgStart(seed)
	la, lb, lc := lcgAt(x0, 334-n)
	ha, hb, hc := lcgAt(x0, rngLen-n)
	for j := n - 1; j >= 0; j-- {
		dst[j] = ((word(la, lb, lc) ^ cooked[333-j]) + (word(ha, hb, hc) ^ cooked[606-j])) & rngMask
		la, lb, lc = step3(la, lb, lc)
		ha, hb, hc = step3(ha, hb, hc)
	}
}

// lcgStart returns the LCG's first value for seed, as math/rand derives
// it: seed mod 2³¹−1, negatives wrapped, 0 replaced by 89482311.
func lcgStart(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// lcgAt returns the LCG values x[21+3i], x[22+3i] and x[23+3i] of the
// expansion of x0: the three that word i is built from.
func lcgAt(x0 uint64, i int) (a, b, c uint64) {
	a = mulMod(x0, powMod(lcgMul, lcgSkip+3*i))
	b = mulMod(a, lcgMul)
	return a, b, mulMod(b, lcgMul)
}

// word is the state word built from the LCG values a, b and c, before its
// cooked mask.
func word(a, b, c uint64) int64 { return int64(a)<<40 ^ int64(b)<<20 ^ int64(c) }

// step3 moves each of the three chains on by one word: three LCG steps.
func step3(a, b, c uint64) (uint64, uint64, uint64) {
	return mulMod(a, lcgMul3), mulMod(b, lcgMul3), mulMod(c, lcgMul3)
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1. The product's high bits
// fold onto its low 31 (2³¹ ≡ 1): for a product below (2³¹−2)² the sum
// stays below 2·(2³¹−1), so one subtraction finishes the reduction.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// powMod returns bᵉ mod 2³¹−1 by square-and-multiply.
func powMod(b uint64, e int) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod(r, b)
		}
		b = mulMod(b, b)
	}
	return r
}
