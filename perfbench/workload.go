package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"amstrack/internal/xrand"
)

const (
	batchRows  = 512     // rows per insert/delete batch on every stream
	keyDomain  = 1 << 20 // keys are drawn from [0, keyDomain)
	flushEvery = 64      // closed-loop clients FLUSH after this many batches
	closedConn = 2       // closed-loop clients, one connection each (nproc on the reference box)
)

// Stream ids. Every stream's batch i is a pure function of (seed, stream,
// i), so the oracle regenerates exactly what was sent from batch counts.
const (
	streamClient0 = 0 // closed-loop clients use ids 0..closedConn-1
	streamServe   = 2 // open-loop generator of the serve phase
	streamTail    = 3 // fixed recovery tail
)

// serveShape is one open-loop phase: writes beside reads.
type serveShape struct {
	rowsPerSec float64 // offered ingest rate
	flushEvery int     // FLUSH after this many batches
	qps        float64 // offered /v1/join query rate
}

// serveLoad is the traffic of every serve phase: serve-under-ingest's
// whole window, and the phase after each closed-loop window. The
// offered rate is a fifth to a quarter of the closed-loop capacity of
// either fleet, so the fleet keeps up and the phase measures latency,
// not backlog.
var serveLoad = serveShape{rowsPerSec: 500_000, flushEvery: 8, qps: 200}

// workload is one traffic mix. Closed-loop workloads run their ingest
// window with closedConn wire.Clients and end with a serve phase, so
// query, lag and freshness figures exist for every workload;
// serve-under-ingest spends its whole window in the serve phase.
type workload struct {
	name    string
	routed  bool    // router in front of 3 members; else 1 member, direct
	zipf    float64 // key skew exponent; 0 means uniform keys
	skim    int     // skim_hitters of both relations; 0 means unskimmed
	deletes bool    // batch i with i%10 == 9 deletes batch i-6's values
	open    bool    // the window is an open-loop serve phase
}

var workloads = []workload{
	{name: "ingest-routed", routed: true},
	{name: "ingest-direct-skew", zipf: 1.2, skim: 64, deletes: true},
	{name: "serve-under-ingest", routed: true, open: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// batches is the length of an open-loop phase of duration d in whole
// batches.
func (s serveShape) batches(d time.Duration) int {
	return int(d.Seconds() * s.rowsPerSec / batchRows)
}

// gen produces the batches of every stream of one run.
type gen struct {
	seed uint64
	wl   *workload
	zipf *zipfTable // nil for uniform keys
}

func newGen(wl *workload, seed uint64) *gen {
	g := &gen{seed: seed, wl: wl}
	if wl.zipf > 0 {
		g.zipf = newZipfTable(wl.zipf, keyDomain)
	}
	return g
}

// relOf names the relation batch i of any stream goes to: streams
// alternate f and g batch by batch.
func relOf(i int) string {
	if i%2 == 0 {
		return "f"
	}
	return "g"
}

// batch fills buf with batch i of stream s and reports its relation and
// direction. A delete batch carries exactly the values of the insert
// batch six earlier on the same stream (same parity, so same relation),
// which the same connection has already sent.
func (g *gen) batch(s, i int, buf []uint64) (rel string, del bool, vals []uint64) {
	src := i
	if g.wl.deletes && i%10 == 9 {
		del, src = true, i-6
	}
	r := xrand.New(g.seed ^ xrand.Mix64(uint64(s)<<40|uint64(src)))
	vals = buf[:batchRows]
	if g.zipf != nil {
		for j := range vals {
			vals[j] = g.zipf.draw(r)
		}
	} else {
		for j := range vals {
			vals[j] = r.Uint64n(keyDomain)
		}
	}
	return relOf(i), del, vals
}

// zipfTable samples ranks of a Zipf(alpha) law over [0, n) by inversion
// on its CDF, with a guide table that narrows each binary search to one
// cell: a few nanoseconds a draw, so key generation stays off the
// measured clients' critical path.
type zipfTable struct {
	cdf   []float64
	guide []int32 // guide[c] = first index whose cdf reaches c/len(guide)
}

func newZipfTable(alpha float64, n int) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	guide := make([]int32, 1<<16+1)
	for c := range guide {
		u := float64(c) / float64(len(guide)-1)
		guide[c] = int32(sort.SearchFloat64s(cdf, u))
	}
	return &zipfTable{cdf: cdf, guide: guide}
}

func (z *zipfTable) draw(r *xrand.Rand) uint64 {
	u := r.Float64()
	c := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[c]), int(z.guide[c+1])
	if hi >= len(z.cdf) {
		hi = len(z.cdf) - 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}
