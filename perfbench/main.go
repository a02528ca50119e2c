// Command perfbench is amstrack's end-to-end benchmark. One process
// starts a fleet on loopback TCP from the same pieces cmd/amsd,
// cmd/amsrouter and joinctl -serve assemble (engine.Open + amsd.NewServer
// + wire.NewServer per node, router.New + wire.NewServerSink(rt.Sink()),
// coord.NewDaemon), drives one named workload from a seed, checks every
// answer against an in-process reference, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures; with -trace 1 the
// run wraps each layer's public calls in timing wrappers, prints the
// FLUSH-chain attribution table to stderr, writes the spans under -out,
// and reports the per-layer figures instead. Build and run it from the
// repository root with perfbench/run.sh, which passes its arguments on:
//
//	bash perfbench/run.sh --workload ingest-routed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload name (ingest-routed, ingest-direct-skew, serve-under-ingest)")
		seed       = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace      = flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
		out        = flag.String("out", ".bench_out", "directory for node data (removed at exit) and trace files")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured window and serve phase to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	cfg := defaultConfig(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	var prof *os.File
	if *cpuprofile != "" {
		if prof, err = os.Create(*cpuprofile); err != nil {
			fail(err)
		}
		cfg.cpuprofile = prof
	}
	res, err := run(cfg, os.Stderr)
	if prof != nil {
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// logf writes progress to the run's log (stderr), never to stdout, whose
// last line is the result.
func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "perfbench: "+format+"\n", args...)
}
