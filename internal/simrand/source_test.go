package simrand

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// FuzzLazySource checks lazySource against math/rand's own source, draw
// for draw, mixing the Int63 and Uint64 entry points. The committed
// corpus covers the seed-normalisation edge cases (0, -1, multiples of
// 2³¹−1, math/rand's zero-seed replacement, math.MinInt64) at draw counts
// around the register build (273/274) and the first register wrap (607).
func FuzzLazySource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got := newLazySource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(draws); i++ {
			if (uint64(seed)+uint64(i))%3 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, i+1, g, w)
				}
				continue
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i+1, g, w)
			}
		}
	})
}

// TestRandMatchesMathRand drives the simulator's rand.Rand and one built
// on rand.NewSource through every draw kind the simulator uses, well past
// the register build. A source that dropped Source64 would diverge on
// Uint64, which rand.Rand then synthesises from two Int63 calls.
func TestRandMatchesMathRand(t *testing.T) {
	draws := []struct {
		name string
		draw func(*rand.Rand) any
	}{
		{"Float64", func(r *rand.Rand) any { return r.Float64() }},
		{"Intn", func(r *rand.Rand) any { return r.Intn(1000) }},
		{"Perm", func(r *rand.Rand) any { return r.Perm(7) }},
		{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() }},
		{"ExpFloat64", func(r *rand.Rand) any { return r.ExpFloat64() }},
		{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
	}
	for _, seed := range []int64{0, 1, 42, -7, 89482311, math.MaxInt64, math.MinInt64} {
		got := New(seed).rng
		want := rand.New(rand.NewSource(seed))
		for round := 0; round < 100; round++ {
			for _, d := range draws {
				if g, w := d.draw(got), d.draw(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d round %d: %s = %v, math/rand %v", seed, round, d.name, g, w)
				}
			}
		}
	}
}

// TestLazySourceSeedResets reseeds a source mid-stream, both before and
// after its register is built, directly and through rand.Rand.Seed.
func TestLazySourceSeedResets(t *testing.T) {
	for _, before := range []int{0, 5, rngTap, rngTap + 1, 700} {
		src := newLazySource(1)
		r := rand.New(src)
		for i := 0; i < before; i++ {
			r.Int63()
		}
		r.Seed(2)
		want := rand.New(rand.NewSource(2))
		for i := 0; i < 700; i++ {
			if g, w := r.Int63(), want.Int63(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %d, math/rand %d", before, i+1, g, w)
			}
		}
		src.Seed(3)
		fresh := rand.NewSource(3)
		for i := 0; i < 300; i++ {
			if g, w := src.Int63(), fresh.Int63(); g != w {
				t.Fatalf("Seed(3) after %d draws: draw %d = %d, math/rand %d", 700+before, i+1, g, w)
			}
		}
	}
}

// TestDeriveSeedsUnchanged pins child streams to the reference seed
// formula that every golden depends on: hash/fnv's FNV-1a over the name,
// fmt.Sprintf("%s[%d]") for indexed names, XORed with the parent's next
// Int63, seeding a math/rand source.
func TestDeriveSeedsUnchanged(t *testing.T) {
	refSeed := func(parent int64, name string) int64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		return int64(h.Sum64()) ^ rand.New(rand.NewSource(parent)).Int63()
	}
	cases := []struct {
		name    string
		indexed bool
		i       int
	}{
		{name: ""},
		{name: "binder"},
		{name: "input"},
		{name: "ünïcode→"},
		{name: "device", indexed: true, i: 0},
		{name: "device", indexed: true, i: 7},
		{name: "device", indexed: true, i: 123456},
		{name: "user", indexed: true, i: -3},
		{name: "", indexed: true, i: math.MaxInt64},
		{name: "trial", indexed: true, i: math.MinInt64},
	}
	for _, c := range cases {
		for _, parent := range []int64{0, 7, 42, -1} {
			var child *Source
			name := c.name
			if c.indexed {
				child = New(parent).DeriveIndexed(c.name, c.i)
				name = fmt.Sprintf("%s[%d]", c.name, c.i)
			} else {
				child = New(parent).Derive(c.name)
			}
			want := rand.New(rand.NewSource(refSeed(parent, name)))
			for k := 0; k < 5; k++ {
				if g, w := child.rng.Int63(), want.Int63(); g != w {
					t.Fatalf("parent %d, %q: draw %d = %d, reference formula %d", parent, name, k+1, g, w)
				}
			}
		}
	}
}

var (
	sinkSource *Source
	sinkFloat  float64
)

// BenchmarkNew is one root stream's construction, with no draws.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = New(int64(i))
	}
}

// BenchmarkDeriveDraw is one derived per-device stream and its draws:
// 0 and 10 are the common cases, 273 the last draw before the register
// is built, 1000 a long-lived stream.
func BenchmarkDeriveDraw(b *testing.B) {
	for _, draws := range []int{0, 10, 273, 1000} {
		b.Run(strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			parent := New(42)
			for i := 0; i < b.N; i++ {
				s := parent.DeriveIndexed("device", i)
				for k := 0; k < draws; k++ {
					sinkFloat += s.Float64()
				}
			}
		})
	}
}
