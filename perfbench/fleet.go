package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/router"
	"amstrack/internal/wire"
)

// Engine shape of every node and of the reference: amsd's defaults
// (k=1024, sketch on, absorber ingest, seed 42) with a durable Dir.
const (
	nodeK    = 1024
	nodeSeed = 42
	routedN  = 3 // members behind the router
)

func nodeOptions(dir string) engine.Options {
	return engine.Options{SignatureWords: nodeK, Seed: nodeSeed, Dir: dir}
}

// member is one amsd node assembled as cmd/amsd does: engine.Open,
// amsd.NewServer on HTTP, wire.NewServer on amswire.
type member struct {
	dir      string
	eng      *engine.Engine
	url      string
	httpSrv  *http.Server
	wireSrv  *wire.Server
	wireAddr string
	wg       sync.WaitGroup
}

// probes wires the benchmark's timing wrappers into a fleet. Nil fields
// leave the layer unwrapped (the untraced run).
type probes struct {
	tr        *tracer
	ingress   *sinkStats // sink behind the ingress listener (router, or the direct node)
	members   *sinkStats // member engines behind the router
	transport *timedTransport
}

func serveHTTP(h http.Handler, wg *sync.WaitGroup) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

func serveWire(s *wire.Server, wg *sync.WaitGroup) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Serve(ln) // returns wire.ErrServerClosed on Close
	}()
	return ln.Addr().String(), nil
}

// startMember opens (or recovers) the engine in dir and serves it.
// wrap, when non-nil, wraps the engine's wire sink.
func startMember(dir string, wrap func(wire.Sink) wire.Sink) (*member, error) {
	eng, err := engine.Open(nodeOptions(dir))
	if err != nil {
		return nil, err
	}
	m := &member{dir: dir, eng: eng}
	h := amsd.NewServer(eng)
	if m.httpSrv, m.url, err = serveHTTP(h, &m.wg); err != nil {
		_ = eng.Close()
		return nil, err
	}
	sink := wire.EngineSink(eng)
	if wrap != nil {
		sink = wrap(sink)
	}
	m.wireSrv = wire.NewServerSink(sink)
	if m.wireAddr, err = serveWire(m.wireSrv, &m.wg); err != nil {
		_ = m.httpSrv.Close()
		_ = eng.Close()
		return nil, err
	}
	h.SetWireStatus(func() amsd.WireStatus {
		st := m.wireSrv.Stats()
		return amsd.WireStatus{Addr: m.wireAddr, Conns: st.Conns, TotalConns: st.TotalConns,
			Batches: st.Batches, Rows: st.Rows, Flushes: st.Flushes, Errors: st.Errors}
	})
	return m, nil
}

// stopServing closes the node's listeners (wire first, as amsd does) but
// leaves the engine open.
func (m *member) stopServing() {
	_ = m.wireSrv.Close()
	_ = m.httpSrv.Close()
	m.wg.Wait()
}

// fleet is the system under test in one process on loopback TCP.
type fleet struct {
	root    string
	members []*member
	rt      *router.Router // nil on a direct workload
	rtWire  *wire.Server
	rtAddr  string
	rtWG    sync.WaitGroup

	co    *coord.Daemon
	coSrv *http.Server
	coURL string
	coWG  sync.WaitGroup
}

// ingressAddr is where clients stream: the router, or the single node.
func (f *fleet) ingressAddr() string {
	if f.rt != nil {
		return f.rtAddr
	}
	return f.members[0].wireAddr
}

func (f *fleet) urls() []string {
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.url
	}
	return out
}

// newFleet assembles the fleet the way cmd/amsd, cmd/amsrouter and
// joinctl -serve do, defines relations f and g, and warms the
// coordinator's cache. The coordinator's refresh loops start only with
// the serve phase.
func newFleet(wl *workload, root string, p probes) (*fleet, error) {
	f := &fleet{root: root}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	n := 1
	if wl.routed {
		n = routedN
	}
	for i := 0; i < n; i++ {
		var wrap func(wire.Sink) wire.Sink
		switch {
		case wl.routed && p.members != nil:
			i := i
			wrap = func(s wire.Sink) wire.Sink { return newTimedSink(s, p.members, p.tr, spanMember, i) }
		case !wl.routed && p.ingress != nil:
			wrap = func(s wire.Sink) wire.Sink { return newTimedSink(s, p.ingress, p.tr, spanIngress, -1) }
		}
		m, err := startMember(filepath.Join(root, fmt.Sprintf("node%d", i)), wrap)
		if err != nil {
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
	}
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	if wl.routed {
		rt, err := router.New(router.Options{Nodes: f.urls(), Client: client,
			Fetcher: coord.NewFetcher(client, 3, 200*time.Millisecond)})
		if err != nil {
			f.close()
			return nil, err
		}
		f.rt = rt
		for _, rel := range []string{"f", "g"} {
			if err := rt.Define(coord.Schema{Relation: rel, SkimHitters: wl.skim}); err != nil {
				f.close()
				return nil, fmt.Errorf("define %s: %w", rel, err)
			}
		}
		var sink wire.Sink = rt.Sink()
		if p.ingress != nil {
			sink = newTimedSink(sink, p.ingress, p.tr, spanIngress, -1)
		}
		f.rtWire = wire.NewServerSink(sink)
		addr, err := serveWire(f.rtWire, &f.rtWG)
		if err != nil {
			f.close()
			return nil, err
		}
		f.rtAddr = addr
	} else {
		for _, rel := range []string{"f", "g"} {
			if _, err := f.members[0].eng.DefineSchema(rel, engine.Schema{SkimHitters: wl.skim}); err != nil {
				f.close()
				return nil, fmt.Errorf("define %s: %w", rel, err)
			}
		}
	}
	var rtp http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if p.transport != nil {
		p.transport.inner = rtp
		rtp = p.transport
	}
	fx := coord.NewFetcher(&http.Client{Timeout: 10 * time.Second, Transport: rtp}, 3, 100*time.Millisecond)
	co, err := coord.NewDaemon(coord.Config{Nodes: f.urls(), Relations: []string{"f", "g"},
		Refresh: 100 * time.Millisecond, Fetcher: fx})
	if err != nil {
		f.close()
		return nil, err
	}
	f.co = co
	if err := co.Sweep(); err != nil {
		f.close()
		return nil, fmt.Errorf("coordinator warm-up: %w", err)
	}
	if f.coSrv, f.coURL, err = serveHTTP(co.Handler(), &f.coWG); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// stopIngest stops the coordinator and the ingest tier in ack-safety
// order (upstream wire listener, router, then each node's listeners),
// leaving the member engines open.
func (f *fleet) stopIngest() {
	if f.co != nil {
		f.co.Stop()
	}
	if f.coSrv != nil {
		_ = f.coSrv.Close()
		f.coWG.Wait()
	}
	if f.rtWire != nil {
		_ = f.rtWire.Close()
		f.rtWG.Wait()
		f.rtWire = nil
	}
	if f.rt != nil {
		_ = f.rt.Close()
		f.rt = nil
	}
	for _, m := range f.members {
		m.stopServing()
	}
}

// close tears everything down and removes the fleet's directories.
func (f *fleet) close() error {
	f.stopIngest()
	var errs []error
	for _, m := range f.members {
		errs = append(errs, m.eng.Close())
	}
	errs = append(errs, os.RemoveAll(f.root))
	return errors.Join(errs...)
}

// checkpointer calls Engine.Checkpoint on every member on a fixed
// period, in place of the jittered background timer, so checkpoint cost
// lands at the same points of every run and is timed.
type checkpointer struct {
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	ms    samples // per-checkpoint wall, ms
	bytes samples
	errs  int
}

func startCheckpointer(engs []*engine.Engine, every time.Duration, tr *tracer) *checkpointer {
	c := &checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
			for i, e := range engs {
				t0 := time.Now()
				n, err := e.Checkpoint()
				t1 := time.Now()
				if err != nil {
					c.errs++
					continue
				}
				c.ms.add(msOf(t1.Sub(t0)))
				c.bytes.add(float64(n))
				tr.record(spanCkpt, i, t0, t1)
			}
		}
	}()
	return c
}

// halt stops the checkpointer and waits for it; it may be called again.
func (c *checkpointer) halt() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}
