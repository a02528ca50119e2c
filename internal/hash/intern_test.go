package hash_test

import (
	"runtime"
	"testing"
	"time"

	"amstrack/internal/hash"
	"amstrack/internal/join"
)

// settleIntern collects garbage until the intern map holds at most want
// entries (cleanups run asynchronously after a GC) or a deadline passes,
// and returns the final size.
func settleIntern(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := hash.InternLen()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTab4InternBoundedUnderHostileSeeds decodes signature blobs with
// 1,000 distinct seeds — what a peer sending arbitrary seeds can make a
// coordinator do — and checks the intern map shrinks back to its baseline
// once the decoded signatures are dropped: seeds cannot pin tables.
func TestTab4InternBoundedUnderHostileSeeds(t *testing.T) {
	const blobs, batch = 1000, 100
	data := make([][]byte, blobs)
	for i := range data {
		fam, err := join.NewFastFamily(16, 1, 0xb0b0<<20+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if data[i], err = fam.NewSignature().MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	base := settleIntern(0)

	live := make([]*join.FastTWSignature, 0, batch)
	for i, d := range data {
		var s join.FastTWSignature
		if err := s.UnmarshalBinary(d); err != nil {
			t.Fatal(err)
		}
		live = append(live, &s)
		if len(live) == batch {
			if n := hash.InternLen(); n < base+batch {
				t.Fatalf("after decode %d: intern map holds %d entries with %d decoded signatures live over baseline %d", i, n, batch, base)
			}
			live = live[:0]
		}
	}
	clear(live[:cap(live)]) // drop the last batch's references
	if n := settleIntern(base); n > base {
		t.Fatalf("intern map holds %d entries after dropping every decoded signature, baseline %d", n, base)
	}
}
