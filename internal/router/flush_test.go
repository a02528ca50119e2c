package router

import (
	"encoding/json"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/wire"
)

// ackGateNode is a fake amswire node that reads batches but holds every
// ACK until the test opens the gate, then acks the batches one frame at
// a time, so a single router Flush wakes once per ACK. It records the
// seq of the last FLUSH frame and counts those that arrive after the
// gate opened.
type ackGateNode struct {
	base      string
	batches   atomic.Int64
	flushSeq  atomic.Uint64
	lateFlush atomic.Int64
	acksSent  atomic.Int64
	gate      chan struct{}
}

func startAckGateNode(t *testing.T) *ackGateNode {
	t.Helper()
	nd := &ackGateNode{gate: make(chan struct{})}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wireLn.Close() })
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireAddr := wireLn.Addr().String()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "wire": map[string]string{"addr": wireAddr}})
	})}
	go func() { _ = srv.Serve(httpLn) }()
	t.Cleanup(func() { _ = srv.Close() })
	nd.base = "http://" + httpLn.Addr().String()
	go func() {
		for {
			conn, err := wireLn.Accept()
			if err != nil {
				return
			}
			go nd.serveWire(conn)
		}
	}()
	return nd
}

func (nd *ackGateNode) serveWire(nc net.Conn) {
	defer nc.Close()
	var rb []byte
	var f wire.Frame
	body, err := wire.ReadFrame(nc, &rb)
	if err != nil || wire.DecodeFrame(body, &f) != nil || f.Kind != wire.KindHello {
		return
	}
	if _, err := nc.Write(wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindWelcome, Proto: wire.ProtoVersion})); err != nil {
		return
	}
	go func() {
		<-nd.gate
		for seq := uint64(1); seq <= uint64(nd.batches.Load()); seq++ {
			nd.acksSent.Add(1)
			if _, err := nc.Write(wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindAck, Seq: seq})); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for {
		body, err := wire.ReadFrame(nc, &rb)
		if err != nil || wire.DecodeFrame(body, &f) != nil {
			return
		}
		switch f.Kind {
		case wire.KindBatch:
			nd.batches.Add(1)
		case wire.KindFlush:
			nd.flushSeq.Store(f.Seq)
			select {
			case <-nd.gate:
				nd.lateFlush.Add(1)
			default:
			}
		}
	}
}

// TestFlushNudgesOnlyOnNewWork: Flush re-nudges the sessions on every
// wake, and every ACK wakes it. A FLUSH frame already written at the
// session's current seq makes the node ack everything it has read, so
// the wakes of one Flush that spans many ACKs, with no batch sent
// meanwhile, must write no further FLUSH frames.
func TestFlushNudgesOnlyOnNewWork(t *testing.T) {
	const batches = 40
	nd := startAckGateNode(t)
	r, err := New(Options{Nodes: []string{nd.base}, ProbeInterval: time.Hour, AckTimeout: 10 * time.Second,
		Client: &http.Client{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := &relState{r: r, name: "f", arity: 1, accts: map[string]*acct{nd.base: {}}}
	r.mu.Lock()
	r.rels["f"] = rs
	r.mu.Unlock()
	for i := range batches {
		if err := r.route(rs, false, []uint64{uint64(i), uint64(i) + 1000}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.Flush("f") }()
	// Open the gate once the node holds every batch and a FLUSH covering
	// the last one (sent after it, or by Flush's first nudge), and Flush
	// has had a moment to park.
	for deadline := time.Now().Add(5 * time.Second); nd.flushSeq.Load() < batches; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node read %d of %d batches, last FLUSH at seq %d", nd.batches.Load(), batches, nd.flushSeq.Load())
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(nd.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := nd.acksSent.Load(); got != batches {
		t.Fatalf("node sent %d ACKs, want %d (one per batch)", got, batches)
	}
	if got := nd.lateFlush.Load(); got != 0 {
		t.Fatalf("Flush wrote %d FLUSH frames while the ACKs arrived with no new batch; want 0", got)
	}
}
