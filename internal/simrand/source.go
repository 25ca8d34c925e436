package simrand

// lazySource reproduces math/rand's rngSource — the additive
// lagged-Fibonacci generator behind rand.NewSource — draw for draw, but
// builds its 607-word register only when a stream outlives the draws
// that can be computed without it. Most simulator streams are derived,
// drawn from a few dozen times and dropped, so seeding the full register
// up front (1841 Park–Miller steps) dominated their cost.
//
// Two facts make the laziness exact:
//
//   - math/rand seeds from the chain x[n+1] = 48271·x[n] mod (2³¹−1), and
//     register word i is (x[21+3i]<<40) ^ (x[22+3i]<<20) ^ x[23+3i] ^
//     rngCooked[i]. Since x[n] = x[0]·48271ⁿ mod (2³¹−1), any word can be
//     computed on its own from a table of powers.
//   - Draw k (1-based) adds feed slot 334−k and tap slot 607−k and stores
//     the sum in the feed slot. For k ≤ 273 neither slot has been written
//     yet, so the draw is word(334−k) + word(607−k).
//
// Draw 274 reads a slot draw 1 wrote, so it builds the register, replays
// the 273 feed writes, and continues with the standard tap/feed loop.
type lazySource struct {
	x0   uint64         // x[0] of the seeding chain, in [1, 2³¹−2]
	n    int            // draws served before the register was built
	vec  *[rngLen]int64 // the register; nil until draw rngTap+1
	tap  int            // index into vec once built
	feed int            // index into vec once built
}

const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	int32max  = 1<<31 - 1
	chainLen  = 21 + 3*rngLen // seeding chain values x[0..1841]
	chainMult = 48271
)

// chainPow[n] is 48271ⁿ mod (2³¹−1).
var chainPow = func() (p [chainLen]uint64) {
	p[0] = 1
	for n := 1; n < chainLen; n++ {
		p[n] = p[n-1] * chainMult % int32max
	}
	return p
}()

// newLazySource returns a source seeded with seed.
func newLazySource(seed int64) *lazySource {
	r := &lazySource{}
	r.Seed(seed)
	return r
}

// Seed resets the source to math/rand's stream for seed, dropping any
// register already built.
func (r *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*r = lazySource{x0: uint64(seed)}
}

// word returns register word i as math/rand's Seed computes it.
func (r *lazySource) word(i int) int64 {
	n := 21 + 3*i
	u := (r.x0*chainPow[n]%int32max)<<40 ^
		(r.x0*chainPow[n+1]%int32max)<<20 ^
		r.x0*chainPow[n+2]%int32max
	return int64(u) ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *lazySource) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (r *lazySource) Uint64() uint64 {
	if r.vec == nil {
		if r.n < rngTap {
			r.n++
			return uint64(r.word(rngLen-rngTap-r.n) + r.word(rngLen-r.n))
		}
		r.build()
	}
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// build fills the register as it stands after the first rngTap draws.
func (r *lazySource) build() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = r.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] += vec[rngLen-k]
	}
	r.vec, r.tap, r.feed = vec, rngLen-rngTap, rngLen-2*rngTap
}
