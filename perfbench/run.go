package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"amstrack/internal/core"
	"amstrack/internal/engine"
	"amstrack/internal/join"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

// config sizes one run. The command line sets the workload, seed,
// window and trace mode; the rest are fixed by the benchmark (the tests
// shrink them).
type config struct {
	wl     *workload
	seed   uint64
	window time.Duration
	trace  bool
	out    string

	serve          serveShape    // traffic of every serve phase
	setups         int           // fleet set-ups timed per run; setup_s is their median
	tail           time.Duration // serve phase after a closed-loop window
	recoverBatches int           // batches of the un-checkpointed recovery tail
	ckptEvery      time.Duration // fixed checkpoint period during the window
	probeBatches   int           // batches of the bare-synopsis speed probe
	dropAt         int64         // test hook: the engine-side sink drops this batch
	cpuprofile     io.Writer     // when set, profiles the measured window and serve phase
}

func defaultConfig(wl *workload, seed uint64, window time.Duration, trace bool, out string) config {
	return config{wl: wl, seed: seed, window: window, trace: trace, out: out, serve: serveLoad,
		setups: 31, tail: 10 * time.Second, recoverBatches: 4096,
		ckptEvery: time.Second, probeBatches: 2048}
}

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names and units in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rows_per_s", "rows/s"},
	{"freshness_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"recover_s", "s"},
}

// perLayer also carries the request latencies: on a host that steals
// CPU from its guests they move by more than any bound this benchmark
// could hold them to, so they are reported but not gated.
var perLayer = []metricDef{
	{"flush_p50_ms", "ms"},
	{"flush_p99_ms", "ms"},
	{"ingest_lag_p50_ms", "ms"},
	{"ingest_lag_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"join_relerr", "ratio"},
	{"wire.insert_block_share", "ratio"},
	{"wire.flush_wait_ms_p50", "ms"},
	{"wire.server_errors", "count"},
	{"router.apply_ns_per_row", "ns"},
	{"router.apply_busy_share", "ratio"},
	{"router.drain_ms_p50", "ms"},
	{"router.node_rows_skew", "ratio"},
	{"router.unhealthy_nodes", "count"},
	{"engine.apply_ns_per_row", "ns"},
	{"engine.drain_ms_p50", "ms"},
	{"engine.apply_busy_share", "ratio"},
	{"engine.checkpoint_ms_p50", "ms"},
	{"engine.checkpoint_bytes", "bytes"},
	{"engine.open_s", "s"},
	{"oplog.bytes_per_row", "bytes"},
	{"amsd.stat_ms_p50", "ms"},
	{"amsd.bundle_ms_p50", "ms"},
	{"amsd.bundle_bytes", "bytes"},
	{"coord.stat_skip_ratio", "ratio"},
	{"coord.refresh_requests_per_s", "1/s"},
	{"coord.staleness_ms_p50", "ms"},
	{"synopsis.update_ns_per_row", "ns"},
	{"go.gc_cpu_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.ingest_rows_per_s", "rows/s"},
	{"trace.flush_chain_residual", "ratio"},
	{"trace.flush_uncovered_share", "ratio"},
	{"host.cpu_steal_share", "ratio"},
}

// layerSnap freezes one sink layer's counters at the end of the window.
type layerSnap struct {
	applyNs, rows int64
	drainP50      float64
}

func snapLayer(st *sinkStats) layerSnap {
	if st == nil {
		return layerSnap{}
	}
	return layerSnap{applyNs: st.applyNs.Load(), rows: st.rows.Load(), drainP50: st.drains.q(0.5)}
}

func (l layerSnap) nsPerRow() float64 {
	if l.rows == 0 {
		return 0
	}
	return float64(l.applyNs) / float64(l.rows)
}

// run executes one benchmark run: timed set-ups, the measured window,
// the serve phase, the recovery tail, then the oracle.
func run(cfg config, logw io.Writer) (*result, error) {
	wl := cfg.wl
	g := newGen(wl, cfg.seed)
	root, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	cpu, stopCPU := watchCPU()
	defer stopCPU()

	var p probes
	if cfg.trace {
		p.tr = newTracer()
		p.transport = &timedTransport{tr: p.tr}
	}
	if cfg.trace || cfg.dropAt > 0 {
		p.ingress, p.members = &sinkStats{}, &sinkStats{}
		if wl.routed {
			p.members.dropAt = cfg.dropAt
		} else {
			p.ingress.dropAt = cfg.dropAt
		}
	}

	// 1. Set-up, timed several times; the last fleet is kept. A fleet
	// set-up is mostly the fsyncs of durable defines, and on ext4 an
	// fsync also writes out whatever else is dirty: the binary just
	// built, or the data of the run before. Flush that first.
	syscall.Sync()
	var setups []float64 // seconds per set-up
	var fl *fleet
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		f, err := newFleet(wl, filepath.Join(root, fmt.Sprintf("fleet%d", i)), p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		fl = f
	}
	defer fl.close()
	engs := func() []*engine.Engine {
		out := make([]*engine.Engine, len(fl.members))
		for i, m := range fl.members {
			out[i] = m.eng
		}
		return out
	}

	var attempted, failed int64
	heap, stopHeap := watchHeap()

	defer stopHeap()
	cpu0 := readMetrics(mGCCPU, mTotalCPU)
	ck := startCheckpointer(engs(), cfg.ckptEvery, p.tr)
	defer ck.halt()
	if cfg.cpuprofile != nil {
		if err := pprof.StartCPUProfile(cfg.cpuprofile); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	// 2. The measured window: closed-loop clients, then a serve phase; or
	// on serve-under-ingest, the serve phase itself.
	var (
		win     *acks // FLUSHes of the measured window
		winFrom time.Time
		winTo   time.Time
		winOps  int64
		clients []*closedClient
		baseOps uint64
		sendNs  int64
		loopNs  int64
		serve   *serveResult
	)
	if !wl.open {
		win = &acks{}
		for id := 0; id < closedConn; id++ {
			c, err := dialClosed(fl.ingressAddr(), streamClient0+id)
			if err != nil {
				return nil, err
			}
			defer c.cl.Close()
			clients = append(clients, c)
			// Warm-up, one client after the other: it opens each stream's
			// relation handles in client order, which is how the traced
			// run maps server-side spans to clients.
			c.send(g, 2, time.Now().Add(time.Hour), false, nil, nil)
		}
		var warmOps int64
		for _, c := range clients {
			warmOps += c.ops
		}
		winFrom = time.Now()
		deadline := winFrom.Add(cfg.window)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *closedClient) {
				defer wg.Done()
				c.send(g, math.MaxInt, deadline, cfg.trace, win, p.tr)
			}(c)
		}
		wg.Wait()
		winTo = time.Now()
		for _, c := range clients {
			winOps += c.ops
			baseOps += uint64(c.ops)
			attempted += int64(c.next) + c.flushes
			failed += c.failed
			sendNs += c.sendNs
			loopNs += c.wallNs
			_ = c.cl.Close()
		}
		winOps -= warmOps
		// Checkpoint cost belongs to the ingest window it interrupts.
		ck.halt()
	}
	window := layerWindow(fl, p)
	d := cfg.tail
	if wl.open {
		d = cfg.window
	}
	st0, bu0 := transportCounts(p.transport)
	serve, err = runServe(fl, g, cfg.serve, d, baseOps, len(clients), p.tr)
	if serve != nil {
		attempted += serve.attempted
		failed += serve.failed
	}
	if err != nil {
		return nil, fmt.Errorf("serve phase: %w", err)
	}
	st1, bu1 := transportCounts(p.transport)
	if wl.open {
		ck.halt()
		win, winFrom, winTo, winOps = &serve.acks, serve.start, serve.end, serve.ops
		window = layerWindow(fl, p)
		sendNs, loopNs = serve.sendNs, int64(serve.end.Sub(serve.start))
	}
	cpu1 := readMetrics(mGCCPU, mTotalCPU)
	attempted += int64(ck.ms.n() + ck.errs)
	failed += int64(ck.errs)
	wireErrs := wireErrors(fl)
	stopHeap()
	pprof.StopCPUProfile() // no-op unless profiling

	// The served answer once the fleet is quiet.
	if err := fl.co.Sweep(); err != nil {
		return nil, fmt.Errorf("final sweep: %w", err)
	}
	qc := httpClient()
	defer qc.CloseIdleConnections()
	served, err := getJoin(qc, fl.coURL)
	attempted++
	if err != nil {
		return nil, fmt.Errorf("final query: %w", err)
	}
	stage1 := [][]sent{{{streamClient0, 0}, {streamServe, serve.batches}}, {{streamClient0 + 1, 0}}}
	for i, c := range clients {
		stage1[i][0].batches = c.next
	}

	// 3. Recovery: checkpoint, a fixed un-checkpointed tail, Close, Open.
	rec, err := recoverFleet(fl, g, cfg.recoverBatches, cpu)
	if rec != nil {
		attempted += rec.attempted
		failed += rec.failed
	}
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}

	// 4. Oracle.
	var checks []error
	ref, err := newReference(g)
	if err != nil {
		return nil, err
	}
	if err := ref.feed(stage1...); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	checks = append(checks, ref.checkServed(served))
	exact := ref.exactJoin()
	relerr := math.Abs(served.Estimate-exact) / exact
	if err := ref.feed([]sent{{streamTail, cfg.recoverBatches}}); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	checks = append(checks, ref.checkFleet(engs(), wl.skim > 0), rec.identity)
	checkErr := errors.Join(checks...)
	if checkErr != nil {
		logf(logw, "correctness check FAILED: %v", checkErr)
	}

	res := &result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	put := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: unlisted metric " + name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	// End-to-end figures are medians over the one-second buckets of
	// their phase, over the set-ups, or over the restart rounds.
	// The closed-loop rate and the restart walls are scaled to the CPU
	// the host left this guest (see steal.go); serve-under-ingest's rate
	// is the offered one.
	rates := win.ops.rate(winFrom, winTo)
	rawRate := median(rates)
	if !wl.open {
		for i := range rates {
			a := winFrom.Add(time.Duration(i) * time.Second)
			b := a.Add(time.Second)
			if b.After(winTo) {
				b = winTo
			}
			rates[i] /= 1 - cpu.steal(a, b)
		}
	}
	rowsPerSec := median(rates)
	winSteal := cpu.steal(winFrom, winTo)
	if !cfg.trace {
		put("setup_s", median(setups))
		put("ingest_rows_per_s", rowsPerSec)
		put("freshness_p50_ms", median(serve.freshMS.perSecond(serve.start, serve.end, median)))
		put("heap_peak_mb", median(heap.perSecond(winFrom, winTo, maxOf))/(1<<20))
		put("recover_s", median(rec.unstolen))
		logf(logw, "%s seed %d: %d flushes, %d lag, %d query, %d freshness samples; lag p50 %.3f ms, max %.1f ms (%d serve batches acked after %v); query p50 %.3f ms",
			wl.name, cfg.seed, win.flushMS.n(), serve.lagMS.n(), serve.queryMS.n(), serve.freshMS.n(),
			median(serve.lagMS.perSecond(serve.start, serve.end, median)), serve.lagMS.q(1), serve.behind, ackDeadline,
			median(serve.queryMS.perSecond(serve.start, serve.end, median)))
		logf(logw, "unscaled: ingest_rows_per_s=%.6g recover_s=%.6g; CPU steal %.1f%% and idle %.1f%% in the window, steal %.1f%% in the serve phase; set-ups %.4f-%.4f s; restarts %.3f-%.3f s",
			rawRate, median(rec.rounds), 100*winSteal, 100*cpu.idle(winFrom, winTo),
			100*cpu.steal(serve.start, serve.end), quantile(setups, 0), quantile(setups, 1),
			quantile(rec.rounds, 0), quantile(rec.rounds, 1))
		return res, nil
	}

	members := 0 // member engines behind a router
	if wl.routed {
		members = len(fl.members)
	}
	att := p.tr.attribute(members, winFrom, winTo)
	att.print(logw)
	switch {
	case att.Flushes < minAttributed:
		logf(logw, "FLUSH-chain check skipped: %d flushes in the window, fewer than %d", att.Flushes, minAttributed)
	case !att.Within:
		logf(logw, "correctness check FAILED: FLUSH-chain self times miss the flush p50 by more than the slack")
		res.Correct = false
	}
	router, eng := window.ingress, window.ingress
	if wl.routed {
		eng = window.members
	} else {
		router = layerSnap{}
	}
	put("flush_p50_ms", median(win.flushMS.perSecond(winFrom, winTo, median)))
	put("flush_p99_ms", win.flushMS.q(0.99))
	put("ingest_lag_p50_ms", median(serve.lagMS.perSecond(serve.start, serve.end, median)))
	put("ingest_lag_p99_ms", serve.lagMS.q(0.99))
	put("query_p50_ms", median(serve.queryMS.perSecond(serve.start, serve.end, median)))
	put("query_p99_ms", serve.queryMS.q(0.99))
	put("failed_ratio", float64(failed)/float64(attempted))
	put("join_relerr", relerr)
	put("wire.insert_block_share", ratio(float64(sendNs), float64(loopNs)))
	put("wire.flush_wait_ms_p50", att.ClientSelfP50)
	put("wire.server_errors", float64(wireErrs))
	put("router.apply_ns_per_row", router.nsPerRow())
	put("router.apply_busy_share", ratio(float64(router.applyNs), float64(winTo.Sub(winFrom))))
	put("router.drain_ms_p50", router.drainP50)
	put("router.node_rows_skew", window.nodeSkew)
	put("router.unhealthy_nodes", float64(window.unhealthy))
	put("engine.apply_ns_per_row", eng.nsPerRow())
	put("engine.drain_ms_p50", eng.drainP50)
	put("engine.apply_busy_share", ratio(float64(eng.applyNs), float64(winTo.Sub(winFrom))))
	put("engine.checkpoint_ms_p50", ck.ms.q(0.5))
	put("engine.checkpoint_bytes", ck.bytes.q(0.5))
	put("engine.open_s", rec.openS)
	put("oplog.bytes_per_row", ratio(float64(rec.oplogBytes), float64(cfg.recoverBatches*batchRows)))
	// Only the fetches of the serve phase: set-up and the final Sweep
	// fetch from an idle fleet.
	put("amsd.stat_ms_p50", p.transport.stat.qRange(st0, st1, 0.5))
	put("amsd.bundle_ms_p50", p.transport.bundle.qRange(bu0, bu1, 0.5))
	put("amsd.bundle_bytes", p.transport.bytes.qRange(bu0, bu1, 0.5))
	put("coord.stat_skip_ratio", 1-ratio(float64(bu1-bu0), float64(st1-st0)))
	put("coord.refresh_requests_per_s", float64(st1-st0+bu1-bu0)/serve.end.Sub(serve.start).Seconds())
	put("coord.staleness_ms_p50", serve.stalenessMS.q(0.5))
	put("synopsis.update_ns_per_row", synopsisProbe(g, cfg.probeBatches))
	put("go.gc_cpu_share", ratio(cpu1[0]-cpu0[0], cpu1[1]-cpu0[1]))
	put("loadgen.late_p99_ms", serve.lateMS.q(0.99))
	put("trace.ingest_rows_per_s", rowsPerSec)
	put("trace.flush_chain_residual", att.Residual)
	put("trace.flush_uncovered_share", att.Uncovered)
	put("host.cpu_steal_share", winSteal)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", wl.name, cfg.seed))
	if err := p.tr.write(path, traceFile{Workload: wl.name, Seed: cfg.seed, Attribution: att, PerLayer: res.Metrics}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	logf(logw, "trace written to %s", path)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowSnap is the layer state at the end of the measured window.
type windowSnap struct {
	ingress, members layerSnap
	nodeSkew         float64 // max/mean rows received per member
	unhealthy        int     // router members not healthy
}

func layerWindow(f *fleet, p probes) windowSnap {
	w := windowSnap{ingress: snapLayer(p.ingress), members: snapLayer(p.members)}
	var maxRows, sum float64
	for _, m := range f.members {
		r := float64(m.wireSrv.Stats().Rows)
		sum += r
		maxRows = max(maxRows, r)
	}
	w.nodeSkew = ratio(maxRows, sum/float64(len(f.members)))
	if f.rt != nil {
		for _, h := range f.rt.Health() {
			if h.State != "healthy" {
				w.unhealthy++
			}
		}
	}
	return w
}

func wireErrors(f *fleet) int64 {
	var n int64
	servers := []*wire.Server{f.rtWire}
	for _, m := range f.members {
		servers = append(servers, m.wireSrv)
	}
	for _, s := range servers {
		if s != nil {
			n += s.Stats().Errors
		}
	}
	return n
}

func transportCounts(t *timedTransport) (stat, bundle int) {
	if t == nil {
		return 0, 0
	}
	return t.stat.n(), t.bundle.n()
}

// recovery is the outcome of the restarts at the end of a run.
type recovery struct {
	attempted, failed int64
	rounds            []float64 // each restart round's fleet restart wall, s
	unstolen          []float64 // the same walls scaled by 1 - steal share
	openS             float64   // median slowest-member Open, s
	oplogBytes        int64     // oplog bytes recovery had to replay
	identity          error     // export before Close vs after Open
}

// restartRounds is how many times the fleet is restarted from the same
// on-disk state; recover_s is the median round.
const restartRounds = 7

// recoverFleet checkpoints every member, streams a fixed tail of batches
// that no checkpoint covers, stops serving, and closes every member.
// It then restarts the fleet from copies of the member directories and,
// last, from the directories themselves, timing each round (members open
// in parallel) and scaling its wall by the CPU share the host left this
// guest during it. Exports before Close must equal exports after the
// final Open (with the Epoch normalised).
func recoverFleet(f *fleet, g *gen, batches int, cpu *cpuClock) (*recovery, error) {
	rec := &recovery{}
	for _, m := range f.members {
		rec.attempted++
		if _, err := m.eng.Checkpoint(); err != nil {
			rec.failed++
			return rec, err
		}
	}
	c, err := dialClosed(f.ingressAddr(), streamTail)
	if err != nil {
		return rec, err
	}
	c.send(g, batches, time.Now().Add(time.Hour), false, nil, nil)
	_ = c.cl.Close()
	rec.attempted += int64(c.next) + c.flushes
	rec.failed += c.failed
	if c.failed > 0 || c.next != batches {
		return rec, fmt.Errorf("recovery tail: %d of %d batches acked", c.acked, batches)
	}
	f.stopIngest()
	before := make([]map[string][]byte, len(f.members))
	for i, m := range f.members {
		before[i] = map[string][]byte{}
		for _, rel := range []string{"f", "g"} {
			if before[i][rel], err = m.eng.ExportRelation(rel); err != nil {
				return rec, err
			}
		}
	}
	for _, m := range f.members {
		if err := m.eng.Close(); err != nil {
			return rec, err
		}
		rec.oplogBytes += oplogBytes(m.dir)
	}
	var slowest []float64
	for round := 0; round < restartRounds; round++ {
		dirs := make([]string, len(f.members))
		for i, m := range f.members {
			dirs[i] = m.dir
			if round < restartRounds-1 {
				dirs[i] = fmt.Sprintf("%s.copy%d", m.dir, round)
				if err := copyDir(m.dir, dirs[i]); err != nil {
					return rec, err
				}
			}
		}
		syscall.Sync() // Open's fsyncs should not write out the copies
		t0 := time.Now()
		opened, wall, slow, err := openAll(dirs)
		if err != nil {
			return rec, err
		}
		rec.rounds = append(rec.rounds, wall)
		rec.unstolen = append(rec.unstolen, wall*(1-cpu.steal(t0, time.Now())))
		slowest = append(slowest, slow)
		if round < restartRounds-1 {
			for i, e := range opened {
				_ = e.Close()
				if err := os.RemoveAll(dirs[i]); err != nil {
					return rec, err
				}
			}
			continue
		}
		for i, m := range f.members {
			m.eng = opened[i]
		}
	}
	rec.openS = median(slowest)
	var ids []error
	for i, m := range f.members {
		for _, rel := range []string{"f", "g"} {
			after, err := m.eng.ExportRelation(rel)
			if err != nil {
				return rec, err
			}
			if err := sameExport(before[i][rel], after); err != nil {
				ids = append(ids, fmt.Errorf("member %d relation %s: %w", i, rel, err))
			}
		}
	}
	rec.identity = errors.Join(ids...)
	return rec, nil
}

// openAll recovers one engine per directory in parallel and reports the
// wall time for all of them and the slowest single Open, in seconds.
func openAll(dirs []string) (engs []*engine.Engine, wall, slowest float64, err error) {
	engs = make([]*engine.Engine, len(dirs))
	secs := make([]float64, len(dirs))
	errs := make([]error, len(dirs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			s := time.Now()
			engs[i], errs[i] = engine.Open(nodeOptions(dir))
			secs[i] = time.Since(s).Seconds()
		}(i, dir)
	}
	wg.Wait()
	wall = time.Since(t0).Seconds()
	for i, e := range errs {
		if e != nil {
			for _, x := range engs {
				if x != nil {
					_ = x.Close()
				}
			}
			return nil, 0, 0, fmt.Errorf("open %s: %w", dirs[i], e)
		}
	}
	return engs, wall, maxOf(secs), nil
}

// copyDir copies the regular files of src (an engine directory is flat)
// into a new directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func oplogBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir) // a missing directory holds no log
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".oplog") {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// synopsisProbe times a single goroutine updating the bare join
// signature and self-join sketch the engine keeps per relation, over
// the workload's own stream: the machine-speed floor that tells a
// slower box apart from a regression. Median of three passes.
func synopsisProbe(g *gen, batches int) float64 {
	type b struct {
		del  bool
		vals []uint64
	}
	in := make([]b, batches)
	for i := range in {
		_, del, vals := g.batch(streamClient0, i, make([]uint64, batchRows))
		in[i] = b{del, vals}
	}
	fam, err := join.NewFastFamily(nodeK/8, 8, nodeSeed)
	if err != nil {
		return 0
	}
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		sig := fam.NewSignature()
		sk, err := core.NewFastTugOfWar(core.Config{S1: 1024, S2: 8, Seed: xrand.Mix64(nodeSeed)})
		if err != nil {
			return 0
		}
		t0 := time.Now()
		for _, x := range in {
			if x.del {
				_ = sig.DeleteBatch(x.vals) // linear synopses: deletes cannot fail
				_ = sk.DeleteBatch(x.vals)
			} else {
				sig.InsertBatch(x.vals)
				sk.InsertBatch(x.vals)
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(batches*batchRows))
	}
	sort.Float64s(passes)
	return passes[1]
}
