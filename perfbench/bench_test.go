package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every fixed size of a run so a smoke run takes a
// second or two, and offers a serve rate the fleet keeps up with under
// the race detector.
func tinyConfig(t *testing.T, wl *workload, trace bool) config {
	cfg := defaultConfig(wl, 7, 300*time.Millisecond, trace, t.TempDir())
	cfg.serve.rowsPerSec = 50_000
	cfg.setups, cfg.tail, cfg.recoverBatches = 2, 300*time.Millisecond, 64
	cfg.ckptEvery, cfg.probeBatches = 100*time.Millisecond, 16
	return cfg
}

// benchmarkFile is BENCHMARK.json at the repository root, when present.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			name := wl.name + map[bool]string{false: "/e2e", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(tinyConfig(t, &wl, trace), &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d: %v", len(res.Metrics), len(want), res.Metrics)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.name, got, ok, m.unit)
					}
				}
			})
		}
	}
}

func TestDroppedBatchFailsTheOracle(t *testing.T) {
	for _, name := range []string{"ingest-routed", "ingest-direct-skew"} {
		t.Run(name, func(t *testing.T) {
			wl, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig(t, wl, false)
			cfg.dropAt = 5
			var log bytes.Buffer
			res, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, log.String())
			}
			if res.Correct {
				t.Fatalf("a silently dropped batch passed the oracle\n%s", log.String())
			}
			if !strings.Contains(log.String(), "row conservation") {
				t.Errorf("the failure does not name row conservation:\n%s", log.String())
			}
		})
	}
}

func TestBenchmarkFileListsTheEmittedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the benchmark emits %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestAttributionSelfTimesAddUp(t *testing.T) {
	tr := &tracer{t0: time.Unix(0, 0)}
	at := func(ms float64) time.Time { return tr.t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// One FLUSH of 10 ms on connection 0: the router drains for 8 ms of
	// it (in two spans), member 1's engine for 5 ms inside those; the
	// other client's drain and member 0's shorter drain do not count.
	tr.record(spanFlush, 0, at(0), at(10))
	tr.record(spanIngress, 0, at(1), at(5))
	tr.record(spanIngress, 0, at(5), at(9))
	tr.record(spanIngress, 1, at(0), at(10))
	tr.record(spanMember, 0, at(2), at(3))
	tr.record(spanMember, 1, at(2), at(4))
	tr.record(spanMember, 1, at(6), at(9.5)) // clipped to the router's span
	a := tr.attribute(2, at(0), at(10))
	if a.Flushes != 1 || a.FlushP50 != 10 || a.ClientSelfP50 != 2 || a.IngressP50 != 3 || a.MemberP50 != 5 {
		t.Fatalf("attribution %+v, want flush 10 = client 2 + router 3 + engine 5", a)
	}
	if a.Residual != 0 || !a.Within || a.Uncovered != 0.2 {
		t.Fatalf("residual %v within %v uncovered %v, want 0, true, 0.2", a.Residual, a.Within, a.Uncovered)
	}
}

func TestRateInterpolatesBetweenAcks(t *testing.T) {
	var s samples
	from := time.Unix(100, 0)
	s.addAt(from.Add(500*time.Millisecond), 1000) // 2000/s until here
	s.addAt(from.Add(2500*time.Millisecond), 4000)
	s.addAt(from.Add(3*time.Second), 500)
	// Second 0: 1000 + half of the 2000/s segment = 2000; second 1:
	// 2000; second 2: 1000 + 500 = 1500.
	if got := median(s.rate(from, from.Add(3*time.Second))); got != 2000 {
		t.Fatalf("rate %v, want the median 2000", got)
	}
}
