// Batched reference-stream execution: CPU.AccessBatch consumes
// run-length-encoded reference streams (arch.RefRun) with a fused fast
// path — spans of TLB-hit, cache-hit iterations resolved inside one loop
// with their instruction counts and stall cycles accumulated in locals
// and flushed once per span — falling out to the scalar access path for
// any reference the fast path cannot prove equivalent: a TLB miss, a
// fault of any kind, an attached sampler, or an obs subscriber wanting
// the event kinds batching could perturb.
//
// The equivalence argument, in full:
//
//   - TLB hits and cache hits publish no events and read no global state,
//     so their bookkeeping commutes: k hit iterations may be summed and
//     committed in one update (tlb.CommitRunHits, cache.AccessRun) with
//     bit-identical final state to k scalar iterations.
//   - Everything else — TLB misses and inserts, page walks, cache fills,
//     faults, permission checks — runs through the unchanged scalar
//     access path, one reference at a time, with all accumulated fast-path
//     state flushed first, so counters, events, and handler interactions
//     occur exactly as the scalar loop would produce them.
//   - Per-instruction sampling (SampleEvery > 0) attributes samples to
//     individual references; the batch path cannot replicate that
//     attribution and defers entirely to the scalar loop.
//   - With an obs subscriber wanting TLB or cache or fault events, runs
//     also execute scalar. The fast path's hit spans would in fact
//     publish nothing either way, but bypassing keeps observed runs
//     trivially event-exact rather than exact-by-argument.
//
// The scalar loop survives unchanged (expandRun) as the reference for
// the randomized scalar-vs-batched differential test.

package cpu

import (
	"repro/internal/arch"
	"repro/internal/obs"
)

// batchable reports whether the fused fast path may execute runs at all
// in the core's current configuration. Sampling needs per-reference
// program-counter attribution, and a subscriber to translation, cache,
// or fault events gets the scalar loop so every observed run is
// event-exact by construction.
func (c *CPU) batchable() bool {
	if c.SampleEvery > 0 {
		return false
	}
	return !(c.bus.Wants(obs.EvTLBInsert) || c.bus.Wants(obs.EvTLBEvict) ||
		c.bus.Wants(obs.EvTLBFlush) || c.bus.Wants(obs.EvCacheFill) ||
		c.bus.Wants(obs.EvCacheEvict) || c.bus.Wants(obs.EvPageFault))
}

// AccessBatch executes a reference stream: exactly equivalent to issuing
// every reference of every run, in order, through Fetch/Read/Write (or
// FetchBlock for runs with Block > 1). Runs with a non-positive count
// are skipped. On error the stream stops at the failing reference,
// with every earlier reference fully applied, like the equivalent loop.
func (c *CPU) AccessBatch(runs []arch.RefRun) error {
	fast := c.batchable()
	for i := range runs {
		r := &runs[i]
		if r.Count <= 0 {
			continue
		}
		var err error
		switch {
		case !fast:
			err = c.expandRun(r)
		case r.Kind == arch.AccessFetch && r.Block > 1:
			err = c.fetchBlockRun(r)
		default:
			err = c.refRunFused(r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// expandRun is the scalar reference semantics of one run: the loop the
// encoding replaced, calling the unchanged per-reference entry points.
func (c *CPU) expandRun(r *arch.RefRun) error {
	va := r.VA
	for i := 0; i < r.Count; i++ {
		var err error
		if r.Kind == arch.AccessFetch && r.Block > 1 {
			err = c.FetchBlock(va, r.Block)
		} else {
			_, _, err = c.access(va, r.Kind)
		}
		if err != nil {
			return err
		}
		va += r.Stride
	}
	return nil
}

// fetchBlockRun executes a run of page visits. Each FetchBlock
// translates once and issues its remaining lines as one cache run, so
// the per-visit loop is already batched where it counts; the visits
// themselves cannot fuse further because each one re-decides its page.
func (c *CPU) fetchBlockRun(r *arch.RefRun) error {
	va := r.VA
	for i := 0; i < r.Count; i++ {
		if err := c.FetchBlock(va, r.Block); err != nil {
			return err
		}
		va += r.Stride
	}
	return nil
}

// refRunFused executes a run of single references. TLB-hit spans are
// resolved by one LookupRun probe each — a large-page entry carries a
// page-stride run across thousands of iterations — and their base
// instruction costs and cache stalls accumulate in locals, flushed once
// per run and before every scalar fallback so a faulting reference
// observes exactly the scalar-path state.
func (c *CPU) refRunFused(r *arch.RefRun) error {
	ctx := c.cur
	if ctx == nil {
		_, _, err := c.access(r.VA, r.Kind) // scalar path reports the error
		return err
	}
	micro := c.MicroI
	fetch := r.Kind == arch.AccessFetch
	if !fetch {
		micro = c.MicroD
	}

	var instrs, stall uint64
	flush := func() {
		if instrs == 0 && stall == 0 {
			return
		}
		ctx.Stats.Instructions += instrs
		if fetch {
			ctx.Stats.ICacheStallCycles += stall
		} else {
			ctx.Stats.DCacheStallCycles += stall
		}
		c.charge(int(instrs)*c.Costs.BaseInstr + int(stall))
		instrs, stall = 0, 0
	}

	va := r.VA
	remaining := r.Count
	for remaining > 0 {
		n, e := micro.LookupRun(va, r.Stride, remaining, ctx.ASID, ctx.DACR, r.Kind)
		if n == 0 {
			// Micro-TLB miss or fault at va: hand this one reference to the
			// scalar path (main-TLB probe, walk, fault handling, retries),
			// with the fast path's accumulated costs flushed first.
			flush()
			if _, _, err := c.access(va, r.Kind); err != nil {
				return err
			}
			va += r.Stride
			remaining--
			continue
		}
		instrs += uint64(n)
		frame, flags := e.Frame(), e.Flags()
		if fetch {
			l1 := c.Caches.L1I
			for i := 0; i < n; i++ {
				if lat := l1.Access(c.physAddr(frame, flags, va)); lat > 1 {
					stall += uint64(lat - 1)
				}
				va += r.Stride
			}
		} else {
			l1 := c.Caches.L1D
			for i := 0; i < n; i++ {
				if lat := l1.Access(c.physAddr(frame, flags, va)); lat > 1 {
					stall += uint64(lat - 1)
				}
				va += r.Stride
			}
		}
		remaining -= n
	}
	if fetch {
		c.lastFetchVA = va - r.Stride
	}
	flush()
	return nil
}
