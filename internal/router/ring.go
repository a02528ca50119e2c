// Package router is the partitioned-ingest tier: a stateless daemon
// that hashes each row's routing key (its primary attribute) onto a
// consistent-hash ring of amsd nodes and streams it to the owner over
// the amswire protocol, exposing the same wire + HTTP ingest surfaces
// upstream that a single amsd node does — existing loaders point at the
// router unchanged and the fleet behaves like one big node.
//
// Correctness rests on AGMS linearity (DESIGN.md §6, §12): a synopsis
// is a linear function of the update stream, so ANY partition of the
// stream across nodes yields partitions whose merged synopsis is
// bit-identical to a single node that saw everything. Placement is
// therefore pure performance policy — the ring exists to spread load
// and to keep membership changes cheap (1/N movement), not to keep the
// answer right. What linearity does NOT forgive is duplication: a batch
// applied twice is counted twice, silently. The router's one hard
// invariant is that an acknowledged batch is never re-sent — failover
// moves only un-ACKed work, and a node whose recovered state disagrees
// with the router's acked ledger is refused rejoin (degrade, don't lie).
package router

import (
	"cmp"
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"amstrack/internal/xrand"
)

// DefaultVNodes is the virtual-node count per member when Options
// leaves it zero: enough points that load imbalance stays within a few
// percent for small fleets, cheap enough that ring construction is
// microseconds.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: members × vnodes points on
// the uint64 circle, each key owned by the first point clockwise from
// its hash. Construction is deterministic — two routers building a ring
// from the same member list (any order) agree on every key's owner, so
// a fleet of stateless routers needs no coordination. Membership change
// rebuilds the ring (cheap); keys move only between a leaving/joining
// member and its neighbors, ~1/N of the space.
//
// The points are flat arrays, and first indexes them by the top bits of
// a hash (4–8 buckets per point), so finding a key's successor point is
// one table load plus a scan of 0–2 points.
type Ring struct {
	members []string // sorted, deduped
	hashes  []uint64 // point hashes, sorted
	owners  []int32  // owners[i] is the member index of point i
	first   []int32  // first[b] is the first point with hash >= b<<shift
	shift   uint
}

// pointHash places one virtual node on the circle. FNV-1a over
// "member#vnode" is stable across processes and Go versions (unlike
// maphash); Mix64 on top spreads FNV's weak low bits over the full
// word so the bucket index over points stays balanced.
func pointHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(member))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(vnode)))
	return xrand.Mix64(h.Sum64())
}

// KeyHash places a routing key on the circle. Keys are hashed
// independently of members (Mix64, not FNV) so adversarial or
// sequential key sets cannot cluster on one arc.
func KeyHash(key uint64) uint64 { return xrand.Mix64(key) }

// NewRing builds the ring for the given members. The member list is
// deduped and sorted first, so any permutation of the same set builds
// an identical ring. vnodes <= 0 uses DefaultVNodes.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	deduped := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			deduped = append(deduped, m)
		}
	}
	type point struct {
		hash   uint64
		member int32
	}
	points := make([]point, 0, len(deduped)*vnodes)
	for m, name := range deduped {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{pointHash(name, v), int32(m)})
		}
	}
	// Members are sorted, so ordering hash ties by member index is the
	// same total order as by name (ties are astronomically rare).
	slices.SortFunc(points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.member, b.member))
	})
	r := &Ring{members: deduped, hashes: make([]uint64, len(points)), owners: make([]int32, len(points))}
	for i, p := range points {
		r.hashes[i], r.owners[i] = p.hash, p.member
	}
	if len(points) == 0 {
		return r
	}
	bucketBits := bits.Len(uint(len(points)-1)) + 2
	r.shift = uint(64 - bucketBits)
	r.first = make([]int32, 1<<bucketBits)
	i := 0
	for b := range r.first {
		for i < len(r.hashes) && r.hashes[i]>>r.shift < uint64(b) {
			i++
		}
		r.first[b] = int32(i)
	}
	return r
}

// Members returns the sorted member list (shared; do not mutate).
func (r *Ring) Members() []string { return r.members }

// liveMask evaluates alive once per member; nil accepts every member.
func (r *Ring) liveMask(alive func(string) bool) []bool {
	if alive == nil {
		return nil
	}
	live := make([]bool, len(r.members))
	for m, name := range r.members {
		live[m] = alive(name)
	}
	return live
}

// successor is the index of the first point whose hash is >= h (> h
// when strict), len(r.hashes) when h is past the last point.
func (r *Ring) successor(h uint64, strict bool) int {
	i := int(r.first[h>>r.shift])
	for i < len(r.hashes) && (r.hashes[i] < h || strict && r.hashes[i] == h) {
		i++
	}
	return i
}

// walk returns the member of the first point at or clockwise of point
// i that live accepts (nil accepts all) and that is not skip.
func (r *Ring) walk(i int, live []bool, skip int) (int, bool) {
	for range r.hashes {
		if i == len(r.hashes) {
			i = 0
		}
		if m := int(r.owners[i]); m != skip && (live == nil || live[m]) {
			return m, true
		}
		i++
	}
	return 0, false
}

// ownerIndex is the ownership rule over member indices: the first live
// point clockwise from the key's hash. live is indexed like Members();
// nil accepts every member. ok is false when no member is live.
func (r *Ring) ownerIndex(key uint64, live []bool) (int, bool) {
	if len(r.hashes) == 0 {
		return 0, false
	}
	return r.walk(r.successor(KeyHash(key), false), live, -1)
}

// Owner returns the member owning key, skipping members the alive
// predicate rejects — the failover walk is the ownership rule: when a
// node is down its arcs fall to the next live point clockwise, and the
// moment it is live again they fall back, with every router agreeing
// because the walk is a pure function of (ring, alive set, key). A nil
// alive accepts every member. ok is false when no member is alive.
func (r *Ring) Owner(key uint64, alive func(string) bool) (owner string, ok bool) {
	m, ok := r.ownerIndex(key, r.liveMask(alive))
	if !ok {
		return "", false
	}
	return r.members[m], true
}

// SuccessorOf returns the first live member clockwise of member's first
// virtual node, excluding member itself — where a drain hands its data.
// ok is false when member is alone (or everything else is dead).
func (r *Ring) SuccessorOf(member string, alive func(string) bool) (string, bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	skip, found := slices.BinarySearch(r.members, member)
	if !found {
		skip = -1
	}
	m, ok := r.walk(r.successor(pointHash(member, 0), true), r.liveMask(alive), skip)
	if !ok {
		return "", false
	}
	return r.members[m], true
}
