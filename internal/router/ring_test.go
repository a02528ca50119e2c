package router

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"amstrack/internal/xrand"
)

// TestRingDeterministicAcrossRouters is the property a fleet of
// stateless routers depends on: two rings built independently from the
// same membership — in ANY input order — assign every key to the same
// owner. No coordination, no shared state, just the hash.
func TestRingDeterministicAcrossRouters(t *testing.T) {
	members := []string{"http://n3:7600", "http://n1:7600", "http://n5:7600", "http://n2:7600", "http://n4:7600"}
	shuffled := []string{"http://n5:7600", "http://n2:7600", "http://n4:7600", "http://n1:7600", "http://n3:7600"}
	a := NewRing(members, 0)
	b := NewRing(shuffled, 0)
	dup := NewRing(append(append([]string(nil), members...), members...), 0) // dedup must not change placement

	rng := xrand.New(99)
	for i := 0; i < 20000; i++ {
		key := rng.Uint64()
		oa, ok := a.Owner(key, nil)
		if !ok {
			t.Fatal("ring with members found no owner")
		}
		ob, _ := b.Owner(key, nil)
		od, _ := dup.Owner(key, nil)
		if oa != ob || oa != od {
			t.Fatalf("key %d: owners diverge across identically-membered rings: %q vs %q vs %q", key, oa, ob, od)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: adding
// or removing one of N members moves only ~1/N of the keyspace, and
// every key that moves is explained by the membership change — a key
// moves on removal only if the removed node owned it, and on addition
// only onto the new node.
func TestRingMinimalMovement(t *testing.T) {
	const n, keys = 5, 40000
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://node%d:7600", i)
	}
	full := NewRing(members, 0)
	without := NewRing(members[:n-1], 0)
	plusOne := NewRing(append(append([]string(nil), members...), "http://node-new:7600"), 0)

	rng := xrand.New(7)
	removedOwned, movedOnRemove, movedOnAdd, movedElsewhere := 0, 0, 0, 0
	for i := 0; i < keys; i++ {
		key := rng.Uint64()
		before, _ := full.Owner(key, nil)
		afterRemove, _ := without.Owner(key, nil)
		afterAdd, _ := plusOne.Owner(key, nil)

		removed := members[n-1]
		if before == removed {
			removedOwned++
		}
		if before != afterRemove {
			moved := before == removed // only the removed node's keys may move
			if !moved {
				t.Fatalf("key %d moved %q→%q on removal of %q — movement not minimal", key, before, afterRemove, removed)
			}
			movedOnRemove++
		}
		if before != afterAdd {
			if afterAdd != "http://node-new:7600" {
				movedElsewhere++
			}
			movedOnAdd++
		}
	}
	if movedElsewhere > 0 {
		t.Fatalf("%d keys moved between OLD members when a node was added — movement not minimal", movedElsewhere)
	}
	if movedOnRemove != removedOwned {
		t.Fatalf("removal moved %d keys but the removed member owned %d", movedOnRemove, removedOwned)
	}
	// Fractions: ~1/5 on removal, ~1/6 on addition, generous ±60%
	// tolerance (vnode placement is hash-lumpy at small N).
	checkFraction := func(what string, moved int, ideal float64) {
		frac := float64(moved) / keys
		if frac < ideal*0.4 || frac > ideal*1.6 {
			t.Fatalf("%s moved %.3f of keys, want ~%.3f (1/N movement violated)", what, frac, ideal)
		}
	}
	checkFraction("removal", movedOnRemove, 1.0/n)
	checkFraction("addition", movedOnAdd, 1.0/(n+1))
}

// TestRingFailoverWalkStability: masking a member with the alive
// predicate must behave exactly like the ownership rule says — dead
// member's keys land on live members, every other key keeps its owner,
// and un-masking restores the original assignment bit-for-bit.
func TestRingFailoverWalkStability(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	ring := NewRing(members, 0)
	dead := "http://b:1"
	alive := func(m string) bool { return m != dead }

	rng := xrand.New(3)
	reassigned := 0
	for i := 0; i < 10000; i++ {
		key := rng.Uint64()
		before, _ := ring.Owner(key, nil)
		during, ok := ring.Owner(key, alive)
		if !ok || during == dead {
			t.Fatalf("key %d: failover walk landed on the dead member", key)
		}
		if before != dead && during != before {
			t.Fatalf("key %d: owner changed %q→%q though its owner was alive", key, before, during)
		}
		if before == dead {
			reassigned++
		}
		after, _ := ring.Owner(key, nil)
		if after != before {
			t.Fatalf("key %d: assignment did not restore after the mask lifted", key)
		}
	}
	if reassigned == 0 {
		t.Fatal("dead member owned no keys — test tests nothing")
	}

	// All dead: no owner, reported honestly.
	if _, ok := ring.Owner(1, func(string) bool { return false }); ok {
		t.Fatal("owner found on a fully dead ring")
	}

	// SuccessorOf never returns the member itself and respects alive.
	succ, ok := ring.SuccessorOf(dead, alive)
	if !ok || succ == dead {
		t.Fatalf("SuccessorOf(%q) = %q, ok=%v", dead, succ, ok)
	}
	if _, ok := NewRing([]string{"solo"}, 0).SuccessorOf("solo", nil); ok {
		t.Fatal("a lone member found a successor")
	}
}

// TestRingGoldenOwners pins placement across versions: a fleet may run
// routers of different builds side by side, and they must agree on
// every key's owner. The golden file holds the owners of 2,000 keys on
// a fixed 5-member ring, as member indices, for three alive sets,
// captured before the ring's lookup became a flat bucket index.
func TestRingGoldenOwners(t *testing.T) {
	raw, err := os.ReadFile("testdata/ring_owners.golden")
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing([]string{"http://n1:7600", "http://n2:7600", "http://n3:7600", "http://n4:7600", "http://n5:7600"}, 0)
	down := map[string][]string{
		"all":        nil,
		"down=n3":    {"http://n3:7600"},
		"down=n2,n4": {"http://n2:7600", "http://n4:7600"},
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(down) {
		t.Fatalf("golden file has %d alive sets, want %d", len(lines), len(down))
	}
	for _, line := range lines {
		label, want, _ := strings.Cut(line, " ")
		dead, ok := down[label]
		if !ok {
			t.Fatalf("golden file names unknown alive set %q", label)
		}
		alive := func(m string) bool { return !slices.Contains(dead, m) }
		rng := xrand.New(2024)
		for i := range len(want) {
			key := rng.Uint64()
			owner, _ := ring.Owner(key, alive)
			if got := slices.Index(ring.Members(), owner); got != int(want[i]-'0') {
				t.Fatalf("%s: key %d (#%d) owned by member %d, golden says %c", label, key, i, got, want[i])
			}
		}
	}
}

// unmix64 inverts xrand.Mix64, so a test can pick a key whose KeyHash
// lands exactly on a chosen point of the circle.
func unmix64(x uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for range 64 / k {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration mod 2^64
		inv := c
		for range 5 {
			inv *= 2 - c*inv
		}
		return inv
	}
	x = unshift(x, 31)
	x = unshift(x*inverse(0x94d049bb133111eb), 27)
	x = unshift(x*inverse(0xbf58476d1ce4e5b9), 30)
	return x - 0x9e3779b97f4a7c15
}

// refRing is the ownership rule written the slow, obvious way: every
// point in a list sorted by (hash, member), a linear scan for the first
// hash at or after h, then a clockwise walk that skips dead members.
type refRing struct {
	members []string
	points  []refPoint
}

type refPoint struct {
	hash   uint64
	member int
}

func newRefRing(members []string, vnodes int) *refRing {
	ref := &refRing{members: slices.Compact(slices.Sorted(slices.Values(members)))}
	for m, name := range ref.members {
		for v := range vnodes {
			ref.points = append(ref.points, refPoint{pointHash(name, v), m})
		}
	}
	slices.SortFunc(ref.points, func(a, b refPoint) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return cmp.Compare(ref.members[a.member], ref.members[b.member])
	})
	return ref
}

// walk is the owner of the first point from which a clockwise walk
// finds a member that is not skip and is live (nil: every member).
func (ref *refRing) walk(h uint64, strict bool, live []bool, skip int) (int, bool) {
	start := 0
	for i, p := range ref.points {
		if p.hash > h || p.hash == h && !strict {
			start = i
			break
		}
	}
	for i := range ref.points {
		p := ref.points[(start+i)%len(ref.points)]
		if p.member != skip && (live == nil || live[p.member]) {
			return p.member, true
		}
	}
	return 0, false
}

// TestRingOwnerMatchesReference checks the flat index against refRing
// for 1–9 members at 1, 3 and 64 vnodes, under random alive subsets
// (none alive and the nil all-alive mask included), for random keys,
// keys hashing exactly onto a point or one either side of it, and keys
// past the last point on the circle.
func TestRingOwnerMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for n := 1; n <= 9; n++ {
		for _, vnodes := range []int{1, 3, 64} {
			members := make([]string, n)
			for i := range members {
				members[i] = fmt.Sprintf("http://m%d-%d:7600", rng.Uint64n(1000), i)
			}
			ring, ref := NewRing(members, vnodes), newRefRing(members, vnodes)
			if !slices.Equal(ring.Members(), ref.members) {
				t.Fatalf("n=%d vnodes=%d: members %v, want %v", n, vnodes, ring.Members(), ref.members)
			}
			hashes := []uint64{0, ^uint64(0), ref.points[len(ref.points)-1].hash + 1}
			for _, p := range ref.points {
				hashes = append(hashes, p.hash, p.hash+1, p.hash-1)
			}
			for range 200 {
				hashes = append(hashes, rng.Uint64())
			}
			masks := [][]bool{nil, make([]bool, n)} // all alive, none alive
			for range 4 {
				live := make([]bool, n)
				for m := range live {
					live[m] = rng.Uint64n(3) > 0
				}
				masks = append(masks, live)
			}
			for _, live := range masks {
				var alive func(string) bool
				if live != nil {
					alive = func(name string) bool { return live[slices.Index(ref.members, name)] }
				}
				for _, h := range hashes {
					key := unmix64(h)
					if KeyHash(key) != h {
						t.Fatalf("unmix64 does not invert Mix64 at %#x", h)
					}
					want, wantOK := ref.walk(h, false, live, -1)
					got, ok := ring.ownerIndex(key, live)
					if ok != wantOK || ok && got != want {
						t.Fatalf("n=%d vnodes=%d live=%v hash=%#x: ownerIndex = %d,%v, want %d,%v", n, vnodes, live, h, got, ok, want, wantOK)
					}
					owner, ok := ring.Owner(key, alive)
					if ok != wantOK || ok && owner != ref.members[want] {
						t.Fatalf("n=%d vnodes=%d live=%v hash=%#x: Owner = %q,%v, want %q", n, vnodes, live, h, owner, ok, ref.members[want])
					}
				}
				for m, name := range ref.members {
					want, wantOK := ref.walk(pointHash(name, 0), true, live, m)
					succ, ok := ring.SuccessorOf(name, alive)
					if ok != wantOK || ok && succ != ref.members[want] {
						t.Fatalf("n=%d vnodes=%d live=%v: SuccessorOf(%q) = %q,%v, want %q,%v", n, vnodes, live, name, succ, ok, ref.members[want], wantOK)
					}
				}
			}
		}
	}
}
