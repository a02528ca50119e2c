package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/join"
)

// sent is how many batches of one stream the fleet acknowledged.
type sent struct{ stream, batches int }

// reference is the oracle's model of what the fleet must hold: an
// in-memory engine with the nodes' options, fed the same seeded streams
// in-process after the timed window, plus exact frequency vectors.
type reference struct {
	g    *gen
	eng  *engine.Engine
	freq [2][]int64 // f and g, net count per key
	ops  uint64     // inserts + deletes fed
	net  int64      // inserts - deletes fed
}

func newReference(g *gen) (*reference, error) {
	eng, err := engine.New(engine.Options{SignatureWords: nodeK, Seed: nodeSeed})
	if err != nil {
		return nil, err
	}
	for _, rel := range []string{"f", "g"} {
		if _, err := eng.DefineSchema(rel, engine.Schema{SkimHitters: g.wl.skim}); err != nil {
			return nil, err
		}
	}
	return &reference{g: g, eng: eng,
		freq: [2][]int64{make([]int64, keyDomain), make([]int64, keyDomain)}}, nil
}

// feed regenerates every listed stream and applies it, one goroutine per
// group of streams (order within a stream is kept; across streams it
// does not matter, by linearity).
func (r *reference) feed(groups ...[]sent) error {
	type part struct {
		freq [2][]int64
		ops  uint64
		net  int64
		err  error
	}
	parts := make([]part, len(groups))
	var wg sync.WaitGroup
	for gi, grp := range groups {
		wg.Add(1)
		go func(p *part, grp []sent) {
			defer wg.Done()
			p.freq = [2][]int64{make([]int64, keyDomain), make([]int64, keyDomain)}
			rels := map[string]*engine.Relation{}
			for _, name := range []string{"f", "g"} {
				rel, err := r.eng.Get(name)
				if err != nil {
					p.err = err
					return
				}
				rels[name] = rel
			}
			buf := make([]uint64, batchRows)
			for _, s := range grp {
				for i := 0; i < s.batches; i++ {
					name, del, vals := r.g.batch(s.stream, i, buf)
					fr := p.freq[0]
					if name == "g" {
						fr = p.freq[1]
					}
					if del {
						if err := rels[name].DeleteBatch(vals); err != nil {
							p.err = err
							return
						}
						for _, v := range vals {
							fr[v]--
						}
						p.net -= int64(len(vals))
					} else {
						rels[name].InsertBatch(vals)
						for _, v := range vals {
							fr[v]++
						}
						p.net += int64(len(vals))
					}
					p.ops += uint64(len(vals))
				}
			}
		}(&parts[gi], grp)
	}
	wg.Wait()
	for _, p := range parts {
		if p.err != nil {
			return p.err
		}
		for k := range r.freq {
			for v, c := range p.freq[k] {
				r.freq[k][v] += c
			}
		}
		r.ops += p.ops
		r.net += p.net
	}
	return r.eng.Drain()
}

func (r *reference) exactJoin() float64 {
	var j float64
	for v, c := range r.freq[0] {
		j += float64(c) * float64(r.freq[1][v])
	}
	return j
}

func (r *reference) bundle(rel string) (*engine.RelationBundle, error) {
	raw, err := r.eng.ExportRelation(rel)
	if err != nil {
		return nil, err
	}
	b := &engine.RelationBundle{}
	return b, b.UnmarshalBinary(raw)
}

// checkServed compares the coordinator's final answer with the
// reference: row counts, covered ops, and the estimate itself, which the
// coordinator computes from the merged signatures alone and so must be
// bit-identical to the estimate over the reference's signatures.
func (r *reference) checkServed(body *coord.JoinBody) error {
	bf, err := r.bundle("f")
	if err != nil {
		return err
	}
	bg, err := r.bundle("g")
	if err != nil {
		return err
	}
	want, err := join.EstimateJoin(bf.Sig, bg.Sig)
	if err != nil {
		return err
	}
	var errs []error
	if body.RowsF != bf.Rows || body.RowsG != bg.Rows {
		errs = append(errs, fmt.Errorf("served rows f=%d g=%d, reference f=%d g=%d",
			body.RowsF, body.RowsG, bf.Rows, bg.Rows))
	}
	if got := seqSum(body); got != r.ops {
		errs = append(errs, fmt.Errorf("served answer covers %d ops, %d were acked", got, r.ops))
	}
	if body.Estimate != want {
		errs = append(errs, fmt.Errorf("served estimate %v, reference %v", body.Estimate, want))
	}
	return errors.Join(errs...)
}

// checkFleet is row conservation plus bundle identity: the members'
// bundles, merged in member order as the coordinator merges them, must
// equal the reference's byte for byte once the per-engine Epoch is
// normalised. With skimming only the signature and sketch halves are
// compared: the heavy-hitter table depends on the order concurrent
// writers reach each shard (DESIGN.md §13).
func (r *reference) checkFleet(engs []*engine.Engine, skim bool) error {
	var errs []error
	var ops uint64
	var rows int64
	for _, rel := range []string{"f", "g"} {
		var merged *engine.RelationBundle
		for _, e := range engs {
			st, err := e.StatRelation(rel)
			if err != nil {
				return err
			}
			ops += st.Seq
			rows += st.Rows
			raw, err := e.ExportRelation(rel)
			if err != nil {
				return err
			}
			b := &engine.RelationBundle{}
			if err := b.UnmarshalBinary(raw); err != nil {
				return err
			}
			if merged == nil {
				merged = b
			} else if err := merged.Merge(b); err != nil {
				return fmt.Errorf("merge %s: %w", rel, err)
			}
		}
		want, err := r.bundle(rel)
		if err != nil {
			return err
		}
		if err := sameBundle(merged, want, skim); err != nil {
			errs = append(errs, fmt.Errorf("relation %s: %w", rel, err))
		}
	}
	if ops != r.ops || rows != r.net {
		errs = append(errs, fmt.Errorf("row conservation: fleet holds %d ops / %d rows, %d ops / %d rows were acked",
			ops, rows, r.ops, r.net))
	}
	return errors.Join(errs...)
}

func sameBundle(got, want *engine.RelationBundle, skim bool) error {
	if skim {
		for _, half := range []struct {
			name string
			a, b interface{ MarshalBinary() ([]byte, error) }
		}{{"signature", got.Sig, want.Sig}, {"sketch", got.Sketch, want.Sketch}} {
			x, err := half.a.MarshalBinary()
			if err != nil {
				return err
			}
			y, err := half.b.MarshalBinary()
			if err != nil {
				return err
			}
			if !bytes.Equal(x, y) {
				return fmt.Errorf("%s half differs from the reference", half.name)
			}
		}
		if got.Rows != want.Rows || got.Seq != want.Seq {
			return fmt.Errorf("rows/seq %d/%d, reference %d/%d", got.Rows, got.Seq, want.Rows, want.Seq)
		}
		return nil
	}
	x, err := marshalNoEpoch(got)
	if err != nil {
		return err
	}
	y, err := marshalNoEpoch(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(x, y) {
		return errors.New("bundle bytes differ")
	}
	return nil
}

// marshalNoEpoch encodes b with Epoch zeroed: Epoch is each engine's
// checkpoint generation, metadata that differs between a recovered
// durable node and an in-memory engine holding the same synopses.
func marshalNoEpoch(b *engine.RelationBundle) ([]byte, error) {
	c := *b
	c.Epoch = 0
	return c.MarshalBinary()
}

// sameExport compares two exports of one relation (before a restart and
// after recovery) with the Epoch normalised.
func sameExport(before, after []byte) error {
	var a, b engine.RelationBundle
	if err := a.UnmarshalBinary(before); err != nil {
		return err
	}
	if err := b.UnmarshalBinary(after); err != nil {
		return err
	}
	if err := sameBundle(&b, &a, false); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}
