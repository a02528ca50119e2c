package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// samples is a concurrency-safe append-only list of timestamped values.
type samples struct {
	mu sync.Mutex
	at []time.Time
	xs []float64
}

func (s *samples) add(x float64) { s.addAt(time.Now(), x) }

func (s *samples) addAt(t time.Time, x float64) {
	s.mu.Lock()
	s.at = append(s.at, t)
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// q is the q-quantile over every sample.
func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(append([]float64(nil), s.xs...), q)
}

// qRange is the q-quantile over the samples added i-th through
// (j-1)-th, where i and j are counts taken with n (of this list or of
// one filled in step with it, so j is capped at this list's length).
func (s *samples) qRange(i, j int, q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	j = min(j, len(s.xs))
	i = min(i, j)
	return quantile(append([]float64(nil), s.xs[i:j]...), q)
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// perSecond splits the samples taken in [from, to) into one-second
// buckets and returns stat of each non-empty bucket, so that a burst of
// interference spoils the seconds it covers, not the run.
func (s *samples) perSecond(from, to time.Time, stat func([]float64) float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int((to.Sub(from) + time.Second - 1) / time.Second)
	buckets := make([][]float64, n)
	for i, t := range s.at {
		if t.Before(from) || !t.Before(to) {
			continue
		}
		if b := int(t.Sub(from) / time.Second); b < n {
			buckets[b] = append(buckets[b], s.xs[i])
		}
	}
	var out []float64
	for _, xs := range buckets {
		if len(xs) > 0 {
			out = append(out, stat(xs))
		}
	}
	return out
}

// rate treats the samples as increments (ops acknowledged at their
// timestamps) and returns, for each whole second of [from, to), the
// increase of their cumulative sum, interpolated linearly between
// samples so the figure does not move in whole FLUSH groups. An interval
// shorter than a second yields its average rate.
func (s *samples) rate(from, to time.Time) []float64 {
	s.mu.Lock()
	type pt struct {
		t time.Time
		c float64
	}
	pts := []pt{{from, 0}}
	idx := make([]int, len(s.at))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.at[idx[a]].Before(s.at[idx[b]]) })
	c := 0.0
	for _, i := range idx {
		if t := s.at[i]; t.After(from) && !t.After(to) {
			c += s.xs[i]
			pts = append(pts, pt{t, c})
		}
	}
	s.mu.Unlock()
	at := func(t time.Time) float64 { // cumulative ops at t
		j := sort.Search(len(pts), func(j int) bool { return !pts[j].t.Before(t) })
		if j == len(pts) {
			return pts[len(pts)-1].c
		}
		if j == 0 || pts[j].t.Equal(t) {
			return pts[j].c
		}
		a, b := pts[j-1], pts[j]
		return a.c + (b.c-a.c)*float64(t.Sub(a.t))/float64(b.t.Sub(a.t))
	}
	var out []float64
	for t := from; !t.Add(time.Second).After(to); t = t.Add(time.Second) {
		out = append(out, at(t.Add(time.Second))-at(t))
	}
	if len(out) == 0 {
		out = append(out, c/to.Sub(from).Seconds())
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

// readMetrics reads the named runtime/metrics values as float64.
func readMetrics(names ...string) []float64 {
	ss := make([]metrics.Sample, len(names))
	for i, n := range names {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := make([]float64, len(names))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

const (
	mHeapLive = "/gc/heap/live:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// watchHeap samples the live heap, as marked by the latest GC, every
// few milliseconds into the returned samples (bytes) until stop is
// called; stop waits for the sampler and may be called more than once.
// The marked live heap, unlike the heap in use, does not depend on when
// the collector happens to run.
func watchHeap() (heap *samples, stop func()) {
	heap = &samples{}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			heap.add(readMetrics(mHeapLive)[0])
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	var once sync.Once
	return heap, func() {
		once.Do(func() { close(quit) })
		<-done
	}
}
