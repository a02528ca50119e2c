package router

import (
	"fmt"
	"slices"
	"testing"

	"amstrack/internal/xrand"
)

// TestPartitionCarvesOneBacking: partitionLocked hands each live owner
// exactly its rows, in input order, and costs a fixed two allocations
// per batch (the shared backing slice and the parts header) however many
// owners the batch spans.
func TestPartitionCarvesOneBacking(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	r := &Router{ring: NewRing(members, 0), nodes: map[string]*node{}}
	for _, m := range members {
		r.nodes[m] = &node{base: m, state: StateHealthy}
	}
	r.nodes["http://c"].state = StateDown
	rnd := xrand.New(3)
	for _, arity := range []int{1, 2} {
		rs := &relState{r: r, name: "f", arity: arity}
		vals := make([]uint64, 512*arity)
		for i := range vals {
			vals[i] = rnd.Uint64()
		}
		r.mu.Lock()
		parts, err := r.partitionLocked(rs, vals)
		r.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild each owner's expected rows with the plain per-row rule.
		want := map[string][]uint64{}
		for i := 0; i < len(vals); i += arity {
			owner, _ := r.ring.Owner(vals[i], r.aliveLocked)
			want[owner] = append(want[owner], vals[i:i+arity]...)
		}
		if len(parts) != len(want) {
			t.Fatalf("arity %d: %d parts, want %d owners", arity, len(parts), len(want))
		}
		for _, p := range parts {
			if p.owner == "http://c" {
				t.Fatalf("arity %d: rows routed to a down member", arity)
			}
			if !slices.Equal(p.vals, want[p.owner]) || cap(p.vals) != len(p.vals) {
				t.Fatalf("arity %d: part for %s has %d values (cap %d), want %d", arity, p.owner, len(p.vals), cap(p.vals), len(want[p.owner]))
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			r.mu.Lock()
			_, _ = r.partitionLocked(rs, vals)
			r.mu.Unlock()
		})
		if allocs > 2 {
			t.Fatalf("arity %d: partitionLocked allocates %.1f times per batch, want <= 2", arity, allocs)
		}
	}
}

// BenchmarkPartition measures the router's per-row placement cost: one
// 512-row batch split across 3 live members, reported as ns/row.
func BenchmarkPartition(b *testing.B) {
	members := []string{"http://a", "http://b", "http://c"}
	r := &Router{ring: NewRing(members, 0), nodes: map[string]*node{}}
	for _, m := range members {
		r.nodes[m] = &node{base: m, state: StateHealthy}
	}
	const rows = 512
	for _, arity := range []int{1, 2} {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			rs := &relState{r: r, name: "f", arity: arity}
			rnd := xrand.New(5)
			vals := make([]uint64, rows*arity)
			for i := range vals {
				vals[i] = rnd.Uint64()
			}
			b.ReportAllocs()
			for b.Loop() {
				r.mu.Lock()
				if _, err := r.partitionLocked(rs, vals); err != nil {
					b.Fatal(err)
				}
				r.mu.Unlock()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
