package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"amstrack/internal/coord"
	"amstrack/internal/wire"
)

// closedClient is one closed-loop loader: a wire.Client with one
// connection that sends batch after batch and FLUSHes every flushEvery.
type closedClient struct {
	id      int
	cl      *wire.Client
	next    int   // next batch index of its stream
	acked   int   // batches covered by a successful Flush
	ops     int64 // ops in acked batches
	failed  int64
	flushes int64
	// traced only: wall inside InsertBatch/DeleteBatch and the loop wall.
	sendNs, wallNs int64
}

func dialClosed(addr string, id int) (*closedClient, error) {
	cl, err := wire.Dial(addr, wire.Options{Conns: 1})
	if err != nil {
		return nil, fmt.Errorf("dial client %d: %w", id, err)
	}
	return &closedClient{id: id, cl: cl}, nil
}

// acks is what a loader observes of its FLUSHes: each one's wall time,
// and the ops each acknowledgement newly covered, both stamped with the
// time the ack arrived.
type acks struct {
	flushMS samples
	ops     samples
}

// send streams batches [c.next, upto), FLUSHing every flushEvery
// batches and after the last one, and stops at the first FLUSH at or
// past deadline. FLUSHes are recorded in rec when it is non-nil.
func (c *closedClient) send(g *gen, upto int, deadline time.Time, traced bool, rec *acks, tr *tracer) {
	buf := make([]uint64, batchRows)
	start := time.Now()
	defer func() {
		if traced {
			c.wallNs += int64(time.Since(start))
		}
	}()
	sinceFlush := 0
	for c.next < upto {
		rel, del, vals := g.batch(c.id, c.next, buf)
		t0 := time.Now()
		var err error
		if del {
			err = c.cl.DeleteBatch(rel, vals)
		} else {
			err = c.cl.InsertBatch(rel, vals)
		}
		if traced {
			c.sendNs += int64(time.Since(t0))
		}
		if err != nil {
			c.failed++
			return
		}
		c.next++
		sinceFlush++
		if sinceFlush == flushEvery || c.next == upto {
			if !c.flush(rec, tr) {
				return
			}
			sinceFlush = 0
			if !time.Now().Before(deadline) {
				return
			}
		}
	}
}

func (c *closedClient) flush(rec *acks, tr *tracer) bool {
	t0 := time.Now()
	err := c.cl.Flush()
	t1 := time.Now()
	c.flushes++
	if err != nil {
		c.failed++
		return false
	}
	n := int64(c.next-c.acked) * batchRows
	if rec != nil {
		rec.flushMS.addAt(t1, msOf(t1.Sub(t0)))
		rec.ops.addAt(t1, float64(n))
	}
	tr.record(spanFlush, c.id, t0, t1)
	c.ops += n
	c.acked = c.next
	return true
}

// serveResult is what one open-loop serve phase measured.
type serveResult struct {
	batches    int   // batches sent (all acked when failed == 0)
	ops        int64 // acked ops
	start, end time.Time
	attempted  int64
	failed     int64

	acks                                         acks
	lagMS, queryMS, lateMS, freshMS, stalenessMS samples
	sendNs                                       int64 // wall inside conn.Write
	behind                                       int64 // batches acked later than ackDeadline
}

// ackDeadline is how long after its due time a serve-phase batch may be
// acknowledged. A later ACK counts the batch as failed: the fleet fell
// behind the offered rate, and the phase measured a backlog instead of
// the latency of a fleet that keeps up.
const ackDeadline = time.Second

// ackEvent is an observed FLUSH acknowledgement: when, and how many ops
// the fleet must hold at that point (cumulative over the run).
type ackEvent struct {
	at   time.Time
	need uint64
}

type answer struct {
	at  time.Time
	seq uint64
}

// runServe is the open-loop phase: one raw amswire connection sends a
// batch every 512/rowsPerSec seconds and a FLUSH every flushEvery
// batches, and one HTTP connection asks the coordinator /v1/join every
// 1/qps seconds. Each batch and query is timed from when it was due, so a
// stall counts against every request it delays, and a batch acknowledged
// after ackDeadline fails. baseOps is the ops the fleet already holds for
// f and g, which an answer must cover; connID is the generator's stream
// id at the ingress sink (streams opened before).
func runServe(f *fleet, g *gen, shape serveShape, d time.Duration, baseOps uint64, connID int, tr *tracer) (*serveResult, error) {
	res := &serveResult{}
	n := shape.batches(d)
	if n < 1 {
		n = 1
	}
	nc, err := net.DialTimeout("tcp", f.ingressAddr(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if err := rawHandshake(nc); err != nil {
		return nil, err
	}
	f.co.Start()

	interval := time.Duration(float64(time.Second) * batchRows / shape.rowsPerSec)
	due := make([]time.Time, n+1) // due[seq], seq 1-based
	start := time.Now().Add(2 * time.Millisecond)
	for i := 1; i <= n; i++ {
		due[i] = start.Add(time.Duration(i-1) * interval)
	}
	flushAt := make(map[uint64]time.Time)
	var flushMu sync.Mutex
	var flushAcks []ackEvent

	// Reader: ACKs are cumulative; each covers every batch up to its seq.
	readErr := make(chan error, 1)
	allAcked := make(chan time.Time, 1)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		var (
			buf   []byte
			fr    wire.Frame
			acked uint64
		)
		for {
			body, err := wire.ReadFrame(nc, &buf)
			if err == nil {
				err = wire.DecodeFrame(body, &fr)
			}
			if err != nil {
				readErr <- err
				return
			}
			now := time.Now()
			if fr.Kind != wire.KindAck {
				readErr <- fmt.Errorf("serve generator: unexpected %v: %s", fr.Kind, fr.Text)
				return
			}
			top := min(fr.Seq, uint64(n))
			for s := acked + 1; s <= top; s++ {
				lag := now.Sub(due[s])
				res.lagMS.add(msOf(lag))
				if lag > ackDeadline {
					res.behind++
				}
			}
			if top > acked {
				res.acks.ops.addAt(now, float64((top-acked)*batchRows))
				acked = top
			}
			flushMu.Lock()
			for s, t0 := range flushAt {
				if s <= acked {
					res.acks.flushMS.addAt(now, msOf(now.Sub(t0)))
					tr.record(spanFlush, connID, t0, now)
					flushAcks = append(flushAcks, ackEvent{at: now, need: baseOps + s*batchRows})
					delete(flushAt, s)
				}
			}
			flushMu.Unlock()
			if acked == uint64(n) {
				allAcked <- now
				return
			}
		}
	}()

	// Query loop, open loop on its own schedule.
	var (
		answers      []answer
		qTried, qBad int64
		qwg          sync.WaitGroup
	)
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		answers, qTried, qBad = queryLoop(f.coURL, shape.qps, start, start.Add(d), res)
	}()

	// Sender.
	var wbuf []byte
	vbuf := make([]uint64, batchRows)
	sendErr := error(nil)
	for i := 1; i <= n; i++ {
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		res.lateMS.add(msOf(now.Sub(due[i])))
		rel, del, vals := g.batch(streamServe, i-1, vbuf)
		wbuf = wire.AppendFrame(wbuf[:0], &wire.Frame{Kind: wire.KindBatch, Seq: uint64(i), Del: del,
			Arity: 1, Relation: rel, Vals: vals})
		flush := i%shape.flushEvery == 0 || i == n
		if flush {
			wbuf = wire.AppendFrame(wbuf, &wire.Frame{Kind: wire.KindFlush, Seq: uint64(i)})
			flushMu.Lock()
			flushAt[uint64(i)] = now
			flushMu.Unlock()
		}
		t0 := time.Now()
		_, err := nc.Write(wbuf)
		res.sendNs += int64(time.Since(t0))
		res.attempted++
		if flush {
			res.attempted++
		}
		if err != nil {
			sendErr = err
			res.failed++
			break
		}
		res.batches = i
	}
	var end time.Time
	if sendErr == nil {
		select {
		case end = <-allAcked:
		case err := <-readErr:
			sendErr = err
			res.failed++
		case <-time.After(30 * time.Second):
			sendErr = errors.New("serve generator: final ACK timed out")
			res.failed++
		}
	}
	qwg.Wait()
	res.attempted += qTried
	res.failed += qBad
	_ = nc.SetDeadline(time.Now()) // unblocks the reader if still parked
	rwg.Wait()
	res.failed += res.behind
	if sendErr != nil {
		return res, sendErr
	}
	res.start, res.end = start, end
	res.ops = int64(res.batches) * batchRows
	freshness(flushAcks, answers, &res.freshMS)
	return res, nil
}

func rawHandshake(nc net.Conn) error {
	if _, err := nc.Write(wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindHello,
		Proto: wire.ProtoVersion, Window: wire.DefaultWindow})); err != nil {
		return err
	}
	var buf []byte
	body, err := wire.ReadFrame(nc, &buf)
	if err != nil {
		return err
	}
	var fr wire.Frame
	if err := wire.DecodeFrame(body, &fr); err != nil {
		return err
	}
	if fr.Kind != wire.KindWelcome {
		return fmt.Errorf("handshake: got %v: %s", fr.Kind, fr.Text)
	}
	return nil
}

// queryLoop issues GET /v1/join?f=f&g=g on one keep-alive connection at
// a fixed rate from start until end, timing each from its due time. It
// returns the answers with the queries attempted and failed.
func queryLoop(base string, qps float64, start, end time.Time, res *serveResult) (out []answer, tried, bad int64) {
	client := httpClient()
	defer client.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / qps)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out, tried, bad
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lateMS.add(msOf(time.Since(due)))
		tried++
		body, err := getJoin(client, base)
		now := time.Now()
		if err != nil {
			bad++
			continue
		}
		res.queryMS.add(msOf(now.Sub(due)))
		res.stalenessMS.add(float64(body.StalenessMS))
		out = append(out, answer{at: now, seq: seqSum(body)})
	}
}

// httpClient is a query client on one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func getJoin(client *http.Client, base string) (*coord.JoinBody, error) {
	resp, err := client.Get(base + "/v1/join?f=f&g=g")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/join: HTTP %d: %s", resp.StatusCode, data)
	}
	var body coord.JoinBody
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, err
	}
	return &body, nil
}

// seqSum is the number of ops the answer covers: the per-node stamps of
// f and g add up to every insert and delete the fleet applied.
func seqSum(b *coord.JoinBody) uint64 {
	var s uint64
	for _, fr := range b.Freshness {
		s += fr.Seq
	}
	return s
}

// freshness pairs each FLUSH ACK with the first later answer that covers
// it. Flushes no answer covered before the phase ended are left out.
func freshness(acks []ackEvent, answers []answer, out *samples) {
	j := 0
	for _, a := range acks {
		for j < len(answers) && answers[j].at.Before(a.at) {
			j++
		}
		k := j
		for k < len(answers) && answers[k].seq < a.need {
			k++
		}
		if k == len(answers) {
			continue
		}
		out.addAt(a.at, msOf(answers[k].at.Sub(a.at)))
	}
}
