package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amstrack/internal/wire"
)

// Span layers recorded by the benchmark's own wrappers, around calls into
// each layer's public API.
const (
	spanFlush   = "wire.flush"    // client Flush (closed loop) or FLUSH round trip (open loop)
	spanIngress = "ingress.drain" // Drain of the sink behind the ingress listener
	spanMember  = "engine.drain"  // Drain of a member engine behind the router
	spanCkpt    = "engine.checkpoint"
	spanStat    = "amsd.stat"
	spanBundle  = "amsd.bundle"
)

type span struct {
	Layer string `json:"layer"`
	Conn  int    `json:"conn"` // client/connection id, or member index for engine.drain
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is the untraced mode.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(layer string, conn int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Layer: layer, Conn: conn, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) byLayer(layer string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// sinkStats aggregates one layer's wire.Sink calls: work done (rows,
// batches), time busy in Apply, and Drain (ack barrier) latencies.
type sinkStats struct {
	applyNs atomic.Int64
	rows    atomic.Int64
	batches atomic.Int64
	drains  samples // ms
	// dropAt > 0 makes the wrapper silently discard the dropAt-th batch:
	// the benchmark's own negative test that the oracle catches a lost
	// acked batch.
	dropAt int64
	seen   atomic.Int64
}

// timedSink wraps a wire.Sink, timing Apply and Drain. Relation handles
// are per connection (the wire server caches one per stream), so each
// handle gets a connection id: member for a member engine behind the
// router, else the order in which streams first touched the relation.
type timedSink struct {
	inner  wire.Sink
	st     *sinkStats
	tr     *tracer
	layer  string
	member int // >= 0 for member engines behind the router

	mu   sync.Mutex
	next map[string]int
}

func newTimedSink(inner wire.Sink, st *sinkStats, tr *tracer, layer string, member int) *timedSink {
	return &timedSink{inner: inner, st: st, tr: tr, layer: layer, member: member, next: map[string]int{}}
}

func (s *timedSink) IngestMode() string { return s.inner.IngestMode() }

func (s *timedSink) Relation(name string) (wire.SinkRelation, error) {
	r, err := s.inner.Relation(name)
	if err != nil {
		return nil, err
	}
	conn := s.member
	if conn < 0 {
		s.mu.Lock()
		conn = s.next[name]
		s.next[name]++
		s.mu.Unlock()
	}
	return &timedRel{inner: r, s: s, conn: conn}, nil
}

type timedRel struct {
	inner wire.SinkRelation
	s     *timedSink
	conn  int
}

func (r *timedRel) Name() string { return r.inner.Name() }
func (r *timedRel) Arity() int   { return r.inner.Arity() }

func (r *timedRel) Apply(del bool, arity int, vals []uint64) error {
	st := r.s.st
	if st.dropAt > 0 && st.seen.Add(1) == st.dropAt {
		return nil
	}
	t0 := time.Now()
	err := r.inner.Apply(del, arity, vals)
	st.applyNs.Add(int64(time.Since(t0)))
	st.rows.Add(int64(len(vals) / arity))
	st.batches.Add(1)
	return err
}

func (r *timedRel) Drain() error {
	t0 := time.Now()
	err := r.inner.Drain()
	t1 := time.Now()
	r.s.st.drains.add(msOf(t1.Sub(t0)))
	r.s.tr.record(r.s.layer, r.conn, t0, t1)
	return err
}

// timedTransport is the coordinator fetcher's RoundTripper: it times
// every stat probe and bundle fetch from request to last body byte.
type timedTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	stat   samples // ms
	bundle samples // ms
	bytes  samples // bundle body bytes
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	kind := spanBundle
	if req.URL.Query().Get("stat") == "1" {
		kind = spanStat
	}
	resp.Body = &timedBody{rc: resp.Body, t: t, kind: kind, t0: t0}
	return resp, nil
}

type timedBody struct {
	rc   io.ReadCloser
	t    *timedTransport
	kind string
	t0   time.Time
	n    int64
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	if !b.done {
		b.done = true
		end := time.Now()
		ms := msOf(end.Sub(b.t0))
		if b.kind == spanStat {
			b.t.stat.add(ms)
		} else {
			b.t.bundle.add(ms)
			b.t.bytes.add(float64(b.n))
		}
		b.t.tr.record(b.kind, 0, b.t0, end)
	}
	return err
}

// interval helpers over [start, end) pairs in nanoseconds.
type ival struct{ s, e int64 }

// union merges overlapping intervals; the result is sorted and disjoint.
func union(xs []ival) []ival {
	sort.Slice(xs, func(i, j int) bool { return xs[i].s < xs[j].s })
	var out []ival
	for _, x := range xs {
		if x.e <= x.s {
			continue
		}
		if n := len(out); n > 0 && x.s <= out[n-1].e {
			if x.e > out[n-1].e {
				out[n-1].e = x.e
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func total(xs []ival) int64 {
	var t int64
	for _, x := range xs {
		t += x.e - x.s
	}
	return t
}

// clipped returns the spans of one connection (conn < 0: any) that
// overlap w, clipped to it. spans must be sorted by start; maxDur bounds
// how far before w.s a still-overlapping span can start.
func clipped(spans []span, conn int, w ival, maxDur int64) []ival {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Start >= w.s-maxDur })
	var out []ival
	for ; i < len(spans) && spans[i].Start < w.e; i++ {
		sp := spans[i]
		if conn >= 0 && sp.Conn != conn {
			continue
		}
		if s, e := max(sp.Start, w.s), min(sp.End, w.e); s < e {
			out = append(out, ival{s, e})
		}
	}
	return out
}

func maxDur(spans []span) int64 {
	var m int64
	for _, s := range spans {
		m = max(m, s.dur())
	}
	return m
}

// attribution splits the wall time of each FLUSH in the measured window
// along the blocking chain:
// client Flush ⊇ ingress sink Drain (the router's, or the engine's on a
// direct node) ⊇ the slowest member engine's Drain. Self time of a layer
// is its covered time minus its child's, so per flush the three self
// times add up to the flush wall exactly; the table compares the sum of
// their medians with the median flush, which is the check the benchmark
// states a slack for.
type attribution struct {
	Flushes       int     `json:"flushes"`
	FlushP50      float64 `json:"flush_p50_ms"`
	ClientSelfP50 float64 `json:"client_self_p50_ms"`
	IngressP50    float64 `json:"ingress_self_p50_ms"`
	MemberP50     float64 `json:"member_engine_p50_ms"`
	SumP50        float64 `json:"sum_of_self_p50_ms"`
	Residual      float64 `json:"residual_share"`  // |sum - flush p50| / flush p50
	Uncovered     float64 `json:"uncovered_share"` // share of all flush wall no ingress Drain covers
	Slack         float64 `json:"slack"`
	Within        bool    `json:"within_slack"`
}

// attributionSlack is the stated tolerance on |Σ self p50 − flush p50| as
// a share of flush p50: medians of parts need not add up to the median
// of the whole, but on a chain where one layer dominates they come close.
const attributionSlack = 0.25

// minAttributed is the fewest flushes whose medians a traced run holds
// to attributionSlack (a full-size window has several hundred): over a
// handful, the median of a sum and the sum of medians part by chance.
const minAttributed = 100

func (t *tracer) attribute(members int, from, to time.Time) attribution {
	lo, hi := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	flushes := t.byLayer(spanFlush)
	ingress := t.byLayer(spanIngress)
	member := t.byLayer(spanMember)
	inMax, memMax := maxDur(ingress), maxDur(member)
	var wall, clientSelf, ingSelf, memSelf []float64
	for _, f := range flushes {
		if f.Start < lo || f.End > hi {
			continue // outside the measured window
		}
		w := ival{f.Start, f.End}
		ing := union(clipped(ingress, f.Conn, w, inMax))
		ingCov := total(ing)
		var memCov int64
		for m := 0; m < members; m++ {
			var parts []ival
			for _, x := range ing {
				parts = append(parts, clipped(member, m, x, memMax)...)
			}
			memCov = max(memCov, total(union(parts)))
		}
		ns := float64(time.Millisecond)
		wall = append(wall, float64(f.dur())/ns)
		clientSelf = append(clientSelf, float64(f.dur()-ingCov)/ns)
		ingSelf = append(ingSelf, float64(ingCov-memCov)/ns)
		memSelf = append(memSelf, float64(memCov)/ns)
	}
	a := attribution{Flushes: len(wall), Slack: attributionSlack}
	if len(wall) == 0 {
		return a
	}
	a.FlushP50 = quantile(wall, 0.5)
	a.ClientSelfP50 = quantile(clientSelf, 0.5)
	a.IngressP50 = quantile(ingSelf, 0.5)
	a.MemberP50 = quantile(memSelf, 0.5)
	a.SumP50 = a.ClientSelfP50 + a.IngressP50 + a.MemberP50
	a.Residual = math.Abs(a.SumP50-a.FlushP50) / a.FlushP50
	a.Within = a.Residual <= a.Slack
	var sumWall, sumClient float64
	for i := range wall {
		sumWall += wall[i]
		sumClient += clientSelf[i]
	}
	a.Uncovered = sumClient / sumWall
	return a
}

func (a attribution) print(w io.Writer) {
	fmt.Fprintf(w, "FLUSH-chain attribution over %d flushes (p50, ms):\n", a.Flushes)
	fmt.Fprintf(w, "  %-28s %9.3f\n", "client Flush self", a.ClientSelfP50)
	fmt.Fprintf(w, "  %-28s %9.3f\n", "ingress Drain self", a.IngressP50)
	fmt.Fprintf(w, "  %-28s %9.3f\n", "slowest member engine Drain", a.MemberP50)
	fmt.Fprintf(w, "  %-28s %9.3f\n", "sum of self times", a.SumP50)
	fmt.Fprintf(w, "  %-28s %9.3f\n", "client flush wall", a.FlushP50)
	fmt.Fprintf(w, "  residual %.1f%% (slack %.0f%%, within: %v); %.1f%% of flush wall outside any ingress Drain\n",
		100*a.Residual, 100*a.Slack, a.Within, 100*a.Uncovered)
}

// traceFile is what a traced run writes at exit: the attribution table
// and the spans it was computed from.
type traceFile struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Attribution attribution       `json:"attribution"`
	PerLayer    map[string]metric `json:"per_layer"`
	Spans       []span            `json:"spans"`
}

// write saves tf with the run's spans. Drain spans that overlap no
// FLUSH are left out: they are the bulk of the trace and no chain uses
// them.
func (t *tracer) write(path string, tf traceFile) error {
	flushes := t.byLayer(spanFlush)
	fmax := maxDur(flushes)
	inFlush := func(sp span) bool {
		return len(clipped(flushes, -1, ival{sp.Start, sp.End}, fmax)) > 0
	}
	t.mu.Lock()
	for _, sp := range t.spans {
		if (sp.Layer != spanIngress && sp.Layer != spanMember) || inFlush(sp) {
			tf.Spans = append(tf.Spans, sp)
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
