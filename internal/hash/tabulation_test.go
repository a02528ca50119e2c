package hash

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestTab4Determinism(t *testing.T) {
	h1 := NewTab4(12345)
	h2 := NewTab4(12345)
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed produced different hash at x=%d", x)
		}
	}
}

func TestTab4SeedsDiffer(t *testing.T) {
	h1 := NewTab4(1)
	h2 := NewTab4(2)
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if h1.Sign(x) == h2.Sign(x) {
			same++
		}
	}
	if same < 400 || same > 600 {
		t.Fatalf("sign agreement between seeds = %d/1000, want about 500", same)
	}
}

func TestTab4SignIsPlusMinusOne(t *testing.T) {
	h := NewTab4(3)
	for x := uint64(0); x < 2000; x++ {
		if s := h.Sign(x); s != 1 && s != -1 {
			t.Fatalf("Tab4.Sign(%d) = %d", x, s)
		}
	}
}

// TestTab4Balance checks the marginal: over many family members, each fixed
// point hashes to +1 about half the time.
func TestTab4Balance(t *testing.T) {
	const members = 4000
	for _, x := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			sum += NewTab4(seed).Sign(x)
		}
		// 6 sigma = 6*sqrt(members) ≈ 380.
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("point %d biased across family: sum = %d over %d members", x, sum, members)
		}
	}
}

// TestTab4PairProducts checks pairwise independence empirically:
// E[ε_x ε_y] ≈ 0 for x != y across family members.
func TestTab4PairProducts(t *testing.T) {
	const members = 4000
	pairs := [][2]uint64{{0, 1}, {5, 9}, {1, 1 << 30}, {123, 456}, {0, 1 << 63}}
	for _, p := range pairs {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			h := NewTab4(seed)
			sum += h.Sign(p[0]) * h.Sign(p[1])
		}
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("pair %v correlated: sum = %d over %d members", p, sum, members)
		}
	}
}

// TestTab4QuadProducts checks the four-point product on generic quads, the
// property driving the tug-of-war variance bound.
func TestTab4QuadProducts(t *testing.T) {
	const members = 4000
	quads := [][4]uint64{
		{0, 1, 2, 3},
		{10, 20, 30, 40},
		{1, 1 << 10, 1 << 20, 1 << 30},
	}
	for _, q := range quads {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			h := NewTab4(seed)
			sum += h.Sign(q[0]) * h.Sign(q[1]) * h.Sign(q[2]) * h.Sign(q[3])
		}
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("quad %v correlated: sum = %d over %d members", q, sum, members)
		}
	}
}

// TestTab4AdversarialQuads is the test that separates this family from
// SIMPLE tabulation. Each quad below forms a rectangle in character space
// (every byte position's four values pair up), so under simple tabulation
// the four hashes XOR to zero and the product of signs is +1 for EVERY
// member. The derived-character tables must break all of them.
func TestTab4AdversarialQuads(t *testing.T) {
	const members = 4000
	quads := [][4]uint64{
		// Rectangle in the two lowest bytes.
		{0x0000, 0x0001, 0x0100, 0x0101},
		// Rectangle spanning the two 32-bit halves.
		{0, 1, 1 << 32, 1<<32 | 1},
		// Rectangle across distant bytes within one half.
		{0, 0xff, 0xff << 16, 0xff<<16 | 0xff},
		// Three different pairing partitions across three byte positions:
		// bytes (b0,b1,b2) = (0,0,0), (0,1,1), (1,0,1), (1,1,0).
		{0x000000, 0x010100, 0x010001, 0x000101},
		// Same structure in the high half.
		{0, 0x0101 << 40, 0x0100<<40 | 1<<32, 0x0001<<40 | 1<<32},
	}
	for _, q := range quads {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			h := NewTab4(seed)
			sum += h.Sign(q[0]) * h.Sign(q[1]) * h.Sign(q[2]) * h.Sign(q[3])
		}
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("adversarial quad %x correlated: sum = %d over %d members (simple tabulation would give %d)",
				q, sum, members, members)
		}
	}
}

// TestTab4OutputSpread buckets hashes of consecutive keys by their top bits;
// the full 64-bit output must be uniform, since FastTugOfWar carves bucket
// indices out of it.
func TestTab4OutputSpread(t *testing.T) {
	const n = 1 << 16
	h := NewTab4(42)
	var buckets [16]int
	for x := uint64(0); x < n; x++ {
		buckets[h.Hash(x)>>60]++
	}
	exp := float64(n) / 16
	for i, c := range buckets {
		if math.Abs(float64(c)-exp) > 6*math.Sqrt(exp) {
			t.Errorf("bucket %d count %d deviates from %f", i, c, exp)
		}
	}
}

// TestTab4SignMatchesHashLowBit pins the sign convention shared with
// FourWise: the sign is the low output bit mapped to ±1.
func TestTab4SignMatchesHashLowBit(t *testing.T) {
	h := NewTab4(7)
	for x := uint64(0); x < 512; x++ {
		want := int64(h.Hash(x)&1)*2 - 1
		if got := h.Sign(x); got != want {
			t.Fatalf("Sign(%d) = %d, want %d", x, got, want)
		}
	}
}

func BenchmarkTab4Sign(b *testing.B) {
	h := NewTab4(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += h.Sign(uint64(i))
	}
	_ = sink
}

func BenchmarkTab4Hash(b *testing.B) {
	h := NewTab4(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i))
	}
	_ = sink
}

// TestTab4GoldenWords pins the table fill: interning must hand out the
// very words the seed always produced, or every persisted sketch and
// signature would decode under a different hash family.
func TestTab4GoldenWords(t *testing.T) {
	golden := []struct {
		seed  uint64
		words [4]uint64 // t[0], t[1000], t[5000], t[tab4Size-1]
		hash  uint64    // Hash(0x0123456789abcdef)
	}{
		{0x0, [4]uint64{0x1ec4150f465d79ea, 0xb49b233be25411ef, 0x367613263de470e4, 0x7abb14b63e08f65f}, 0x535bafda713696f9},
		{0x1, [4]uint64{0x6b9e97b589d2801b, 0x71843108c6e884e3, 0x4502b5047d9d4f15, 0x95369719263584bf}, 0x8adb896e06b184ac},
		{0x2a, [4]uint64{0x6de30c21cb2d4cf6, 0xe2cc6dff3d5a0590, 0xf38aa8fcd4df3fe4, 0x17d87049bae44013}, 0x86270e41f7626a7},
		{0xdeadbeefcafef00d, [4]uint64{0xd67a525dc2131ed4, 0x36879967077b46ca, 0xc018e4aea05ff1f9, 0xf9581ccd2b0f73e5}, 0xba59b41ad632b1d1},
	}
	for _, g := range golden {
		h := NewTab4(g.seed)
		got := [4]uint64{h.t[0], h.t[1000], h.t[5000], h.t[tab4Size-1]}
		if got != g.words {
			t.Errorf("seed %#x: table words %#x, want %#x", g.seed, got, g.words)
		}
		if v := h.Hash(0x0123456789abcdef); v != g.hash {
			t.Errorf("seed %#x: Hash = %#x, want %#x", g.seed, v, g.hash)
		}
	}
}

// TestTab4SharedPerSeed: while a member is referenced, every NewTab4 of
// its seed shares the same backing table; other seeds get their own.
func TestTab4SharedPerSeed(t *testing.T) {
	a := NewTab4(777)
	b := NewTab4(777)
	if a.t != b.t {
		t.Fatal("same seed built two tables while the first was live")
	}
	if c := NewTab4(778); c.t == a.t {
		t.Fatal("distinct seeds share a table")
	}
	runtime.KeepAlive(a)
}

// TestTab4ConcurrentIntern races same-seed constructions (run under
// -race): every caller must get the one shared, fully filled table.
func TestTab4ConcurrentIntern(t *testing.T) {
	const seed, callers = 0x5eed, 8
	out := make([]Tab4, callers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = NewTab4(seed)
		}()
	}
	wg.Wait()
	want := out[0].Hash(0x0123456789abcdef)
	for i, h := range out {
		if h.t != out[0].t {
			t.Fatalf("caller %d got a different table", i)
		}
		if v := h.Hash(0x0123456789abcdef); v != want {
			t.Fatalf("caller %d: Hash = %#x, want %#x", i, v, want)
		}
	}
}
