package cycle

import (
	"fmt"

	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/trace"
)

// tcuState is the scheduling state of one TCU.
type tcuState uint8

const (
	tcuIdle      tcuState = iota // serial mode; not participating
	tcuRunning                   // may issue at the next cluster edge
	tcuStalled                   // local/shared-unit latency until stallUntil
	tcuWaitMem                   // blocked on a memory / prefix-sum response
	tcuWaitFence                 // waiting for pending non-blocking stores
	tcuDraining                  // out of work, draining posted stores before done
	tcuDone                      // blocked at chkid; all its work is finished
	tcuDead                      // permanently decommissioned by an injected fault
)

// tickableStates marks the states whose Tick can make progress without an
// external delivery: these are the only TCUs the cluster tick must visit.
// tcuWaitFence's fence check is self-contained, so it stays tickable even
// though it usually waits on store responses.
const tickableStates = 1<<tcuRunning | 1<<tcuStalled | 1<<tcuWaitFence

// activeStates marks the states that count toward the cluster's BusyCycles
// attribution (everything but idle/done/dead).
const activeStates = 1<<tcuRunning | 1<<tcuStalled | 1<<tcuWaitMem |
	1<<tcuWaitFence | 1<<tcuDraining

// TCU is one lightweight parallel core: private ALU, shift and branch
// units, a prefetch buffer, and access to the cluster-shared FPU/MDU and
// the memory system. TCUs execute virtual threads handed out by the
// prefix-sum-based spawn protocol.
type TCU struct {
	sys     *System
	cluster *Cluster
	id      int // global TCU index
	local   int // index within the cluster

	ctx   funcmodel.Context
	state tcuState

	// Fault-injection state (docs/ROBUSTNESS.md). alive starts true and goes
	// false exactly once, at decommission. failing marks a TCU hit by a
	// permanent fault mid-thread; it decommissions itself at the next safe
	// point in its compute phase. doneCounted records whether this TCU's
	// completion has been counted by the spawn unit (its obDone committed) —
	// needed so decommissioning a done TCU adjusts the join count correctly.
	alive       bool
	failing     bool
	doneCounted bool

	stallUntil   int64 // cluster cycle (tcuStalled)
	pendingNB    int   // outstanding non-blocking stores
	memWaitStart engine.Time
	blockPC      int32 // PC of the instruction blocked in tcuWaitMem
	blockOp      isa.Op
	waitPS       bool // the block is on the prefix-sum unit, not memory

	pbuf prefetchBuffer

	// pendingPbufLoad is the load instruction blocked on an in-flight
	// prefetch fill (so it can commit straight from the filled line).
	pendingPbufLoad isa.Instr
	pendingPbufAddr uint32
	waitingPbuf     bool

	// pendingSend stashes a package the ICN injection port refused, so the
	// retry next cycle skips re-fetch, effective-address computation and
	// package construction. Only ops whose retry has no other per-attempt
	// side effect use it (psm, plain loads, stores — not lwro, whose
	// RO-cache probe counts a miss per attempt, and not pref, which drops).
	// Cleared by any delivery at this TCU: a prefetch fill can turn the
	// retried load into a buffer hit, so the slow path must re-decide.
	pendingSend   *Package
	pendingSendPC int
	pendingSendIn isa.Instr
}

// setState transitions the TCU's scheduling state, maintaining the
// cluster's tickable-TCU bitmask and active count. Every state write after
// construction must go through here.
func (t *TCU) setState(ns tcuState) {
	os := t.state
	if os == ns {
		return
	}
	t.state = ns
	c := t.cluster
	if c.maskOK {
		if tickableStates&(1<<ns) != 0 {
			c.tickMask |= 1 << uint(t.local)
		} else {
			c.tickMask &^= 1 << uint(t.local)
		}
	}
	if activeStates&(1<<ns) != 0 {
		if activeStates&(1<<os) == 0 {
			c.nActive++
		}
	} else if activeStates&(1<<os) != 0 {
		c.nActive--
	}
}

// resetForSpawn re-initializes the TCU at spawn onset: zeroed registers
// with the broadcast master-register image applied, PC at the first
// broadcast instruction.
func (t *TCU) resetForSpawn(pc int, bcastMask uint32, bcast *[isa.NumRegs]int32) {
	t.ctx = funcmodel.Context{ID: t.id, PC: pc}
	for r := 0; r < isa.NumRegs; r++ {
		if bcastMask&(1<<uint(r)) != 0 {
			t.ctx.Reg[r] = bcast[r]
		}
	}
	t.setState(tcuRunning)
	t.stallUntil = 0
	t.pendingNB = 0
	t.waitingPbuf = false
	t.doneCounted = false
	t.pendingSend = nil
	t.pbuf.invalidateAll()
}

// Tick advances the TCU by one cluster cycle. It returns whether the TCU
// needs further ticks (a memory-blocked TCU is woken by its response event
// instead).
func (t *TCU) Tick(cycle int64, now engine.Time) bool {
	switch t.state {
	case tcuIdle, tcuDone, tcuDraining, tcuDead:
		return false
	case tcuWaitMem:
		return false
	case tcuWaitFence:
		if t.pendingNB > 0 {
			return false
		}
		t.setState(tcuRunning)
	case tcuStalled:
		if cycle < t.stallUntil {
			return true
		}
		t.setState(tcuRunning)
	}
	if t.failing {
		// Safe point: no in-flight blocking request. Posted stores must
		// still drain (the memory system would deliver into a dead TCU);
		// until then the TCU issues nothing.
		if t.pendingNB > 0 {
			return false
		}
		t.cluster.ob.decomm(t)
		t.setState(tcuDead)
		return false
	}
	if t.pendingSend != nil {
		return t.retrySend(now)
	}
	return t.issue(cycle, now)
}

// stashSend records a refused injection for the fast retry path and keeps
// the PC on the refused instruction, exactly like the full re-issue would.
func (t *TCU) stashSend(p *Package, pc int, in isa.Instr) bool {
	t.ctx.PC = pc
	t.pendingSend = p
	t.pendingSendPC = pc
	t.pendingSendIn = in
	return true
}

// retrySend re-attempts a previously refused injection. The single-cycle
// engine re-runs the whole issue on every retry — emitting trace, event and
// profile records per attempt and refreshing the package's issue time — so
// the fast path replicates exactly that, minus the redundant fetch,
// effective-address computation and package construction.
func (t *TCU) retrySend(now engine.Time) bool {
	p := t.pendingSend
	pc := t.pendingSendPC
	in := t.pendingSendIn
	if t.sys.traceFn != nil {
		t.cluster.ob.trace(t, pc, in)
	}
	if t.cluster.evRing != nil {
		t.cluster.evRing.Emit(trace.Event{TS: now, Dur: t.sys.clusterClock.Period(),
			Kind: trace.EvInstr, Op: in.Op, Ctx: int32(t.id), PC: int32(pc), Arg: int64(in.Line)})
	}
	if t.cluster.prof != nil {
		t.cluster.prof.Issue(pc)
	}
	p.Issued = now
	if !t.cluster.send(p, now) {
		return true
	}
	t.pendingSend = nil
	t.ctx.PC = pc + 1
	t.cluster.ob.count(in.Op)
	switch {
	case in.Op == isa.OpPsm:
		t.cluster.ob.stat(&t.sys.Stats.PsmOps, 1)
		t.blockMem(now, pc, in.Op)
		return false
	case p.Kind == PkgStoreNB:
		t.pendingNB++
		return true
	default: // plain loads and blocking stores
		t.blockMem(now, pc, in.Op)
		return false
	}
}

// issue fetches and dispatches one instruction. It runs in the compute
// phase of the cluster tick, which may execute concurrently with other
// clusters: it only mutates TCU/cluster-local state and reads shared state;
// every shared effect goes through the cluster outbox (see outbox.go).
func (t *TCU) issue(cycle int64, now engine.Time) bool {
	m := t.sys.Machine
	region := t.sys.spawn.region
	if region == nil {
		t.setState(tcuIdle)
		return false
	}
	pc := t.ctx.PC
	if pc <= region.Spawn || pc > region.Join {
		t.cluster.ob.fail(fmt.Errorf("cycle: TCU %d fetched instruction %d outside the broadcast region (%d,%d]",
			t.id, pc, region.Spawn, region.Join))
		return false
	}
	in := m.Prog.Text[pc]
	t.ctx.PC++

	if t.sys.traceFn != nil {
		t.cluster.ob.trace(t, pc, in)
	}
	if t.cluster.evRing != nil {
		t.cluster.evRing.Emit(trace.Event{TS: now, Dur: t.sys.clusterClock.Period(),
			Kind: trace.EvInstr, Op: in.Op, Ctx: int32(t.id), PC: int32(pc), Arg: int64(in.Line)})
	}
	if t.cluster.prof != nil {
		t.cluster.prof.Issue(pc)
	}

	count := func() { t.cluster.ob.count(in.Op) }
	meta := in.Op.Meta()

	switch {
	case in.Op == isa.OpJoin:
		// Falling into join: this TCU's current virtual thread ended at the
		// region boundary; the TCU is done (it must re-grab via ps, which
		// the compiler always places before chkid, so reaching join means
		// the code simply ran off the region: treat as done).
		count()
		t.finish(now)
		return false

	case in.Op == isa.OpChkid:
		count()
		id := t.ctx.Reg[in.Rd]
		if id > t.sys.spawn.high {
			t.finish(now)
			return false
		}
		return true

	case in.Op == isa.OpPs, in.Op == isa.OpGrr, in.Op == isa.OpGrw:
		count()
		t.blockMem(now, pc, in.Op)
		t.waitPS = true
		// The prefix-sum unit paces requests through a shared per-cycle
		// window; submit at commit so slots are granted in cluster order.
		t.cluster.ob.ps(t, in)
		return false

	case in.Op == isa.OpFence:
		count()
		t.pbuf.invalidateAll()
		if t.pendingNB > 0 {
			t.setState(tcuWaitFence)
			return false
		}
		return true

	case in.Op == isa.OpSys:
		count()
		// Syscalls print to the shared output stream (and may halt): defer
		// to commit so output interleaves in deterministic cluster order.
		t.cluster.ob.sys(t, pc, in)
		return true

	case in.Op == isa.OpPsm:
		addr := m.EffAddr(&t.ctx, in)
		p := t.cluster.allocPkg()
		*p = Package{Kind: PkgPsm, In: in, Cluster: t.cluster.id, TCU: t.local,
			Addr: addr, Data: t.ctx.Reg[in.Rd], Issued: now}
		if !t.trySend(p, now) {
			return t.stashSend(p, pc, in) // retry next cycle
		}
		count()
		t.cluster.ob.stat(&t.sys.Stats.PsmOps, 1)
		t.blockMem(now, pc, in.Op)
		return false

	case in.Op == isa.OpPref:
		count()
		addr := m.EffAddr(&t.ctx, in)
		la := t.pbuf.lineOf(addr)
		if t.pbuf.find(addr) != nil {
			return true // already buffered or in flight
		}
		e := t.pbuf.allocate(la, cycle)
		if e == nil {
			return true // all slots in flight; drop the hint
		}
		p := t.cluster.allocPkg()
		*p = Package{Kind: PkgPrefetch, In: in, Cluster: t.cluster.id, TCU: t.local,
			Addr: la, LineAddr: la, Issued: now}
		if !t.trySend(p, now) {
			e.valid = false // could not inject; drop
			t.cluster.freePkg(p)
			return true
		}
		t.cluster.ob.stat(&t.sys.Stats.PrefetchFills, 1)
		return true

	case in.Op == isa.OpLwRO:
		count()
		addr := m.EffAddr(&t.ctx, in)
		if t.cluster.ro != nil && t.cluster.ro.Lookup(addr, cycle) {
			t.cluster.ob.stat(&t.sys.Stats.ROHits, 1)
			v, err := m.LoadValue(in, addr)
			if err != nil {
				t.cluster.ob.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: in, Err: err})
				return false
			}
			if t.sys.race != nil {
				t.cluster.ob.race(t, addr, in)
			}
			t.ctx.SetReg(in.Rd, v)
			t.stall(cycle + t.sys.Cfg.ROCacheLatency)
			return true
		}
		t.cluster.ob.stat(&t.sys.Stats.ROMisses, 1)
		p := t.cluster.allocPkg()
		*p = Package{Kind: PkgLoad, In: in, Cluster: t.cluster.id, TCU: t.local,
			Addr: addr, Issued: now}
		if !t.trySend(p, now) {
			// No stash: the RO-cache probe above counts a miss per attempt.
			t.cluster.freePkg(p)
			t.ctx.PC = pc
			return true
		}
		t.blockMem(now, pc, in.Op)
		return false

	case meta.Load: // lw, lb, lbu
		addr := m.EffAddr(&t.ctx, in)
		if e := t.pbuf.find(addr); e != nil {
			count()
			if e.ready {
				t.cluster.ob.stat(&t.sys.Stats.PrefetchHits, 1)
				e.lastUse = cycle
				// xmtsan: a hit on prefetched data is exactly the stale-read
				// mechanism of paper Fig. 6 — record it as this TCU's read.
				if t.sys.race != nil {
					t.cluster.ob.race(t, addr, in)
				}
				t.ctx.SetReg(in.Rd, extractPbuf(e, in, addr))
				return true
			}
			// The line's fill is in flight: wait for it instead of issuing
			// duplicate traffic; the load commits straight from the fill.
			e.waiter = t
			t.waitingPbuf = true
			t.pendingPbufLoad = in
			t.pendingPbufAddr = addr
			t.blockMem(now, pc, in.Op)
			return false
		}
		p := t.cluster.allocPkg()
		*p = Package{Kind: PkgLoad, In: in, Cluster: t.cluster.id, TCU: t.local,
			Addr: addr, Issued: now}
		if !t.trySend(p, now) {
			return t.stashSend(p, pc, in)
		}
		count()
		t.blockMem(now, pc, in.Op)
		return false

	case meta.Store: // sw, sb, sw.nb
		addr := m.EffAddr(&t.ctx, in)
		kind := PkgStore
		if in.Op == isa.OpSwNB {
			kind = PkgStoreNB
		}
		p := t.cluster.allocPkg()
		*p = Package{Kind: kind, In: in, Cluster: t.cluster.id, TCU: t.local,
			Addr: addr, Data: t.ctx.Reg[in.Rd], Issued: now}
		if !t.trySend(p, now) {
			return t.stashSend(p, pc, in)
		}
		count()
		if kind == PkgStoreNB {
			t.pendingNB++
			return true
		}
		t.blockMem(now, pc, in.Op)
		return false

	case meta.Unit == isa.UnitMDU || meta.Unit == isa.UnitFPU:
		lat, ok := t.cluster.acquire(meta.Unit, cycle, int64(meta.Latency))
		if !ok {
			t.sys.Stats.Cluster[t.cluster.id].FPUWaitCycles++
			t.ctx.PC = pc // retry next cycle
			return true
		}
		count()
		if err := m.ExecCompute(&t.ctx, in); err != nil {
			t.cluster.ob.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: in, Err: err})
			return false
		}
		t.stall(cycle + lat)
		return true

	case meta.Branch:
		count()
		taken, target, err := m.EvalBranch(&t.ctx, in)
		if err != nil {
			t.cluster.ob.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: in, Err: err})
			return false
		}
		if taken {
			t.ctx.PC = target
		}
		return true

	case in.Op == isa.OpSpawn, in.Op == isa.OpBcast:
		t.cluster.ob.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: in,
			Err: fmt.Errorf("%s executed by a parallel TCU", in.Op)})
		return false

	default:
		count()
		if err := m.ExecCompute(&t.ctx, in); err != nil {
			t.cluster.ob.fail(&funcmodel.RuntimeError{PC: pc, Line: in.Line, In: in, Err: err})
			return false
		}
		return true
	}
}

func extractPbuf(e *pbufEntry, in isa.Instr, addr uint32) int32 {
	word := e.read(addr&^3, 4)
	switch in.Op {
	case isa.OpLw:
		return word
	case isa.OpLb:
		return int32(int8(word >> (8 * (addr & 3))))
	case isa.OpLbu:
		return int32(uint8(word >> (8 * (addr & 3))))
	}
	return word
}

func (t *TCU) stall(until int64) {
	t.setState(tcuStalled)
	t.stallUntil = until
}

func (t *TCU) blockMem(now engine.Time, pc int, op isa.Op) {
	t.setState(tcuWaitMem)
	t.memWaitStart = now
	t.blockPC = int32(pc)
	t.blockOp = op
	t.waitPS = false
}

func (t *TCU) unblock(now engine.Time) {
	if t.state == tcuWaitMem {
		wait := now - t.memWaitStart
		if wait > 0 {
			cycles := uint64(wait / t.sys.clusterClock.Period())
			cs := &t.sys.Stats.Cluster[t.cluster.id]
			if t.waitPS {
				cs.PSWaitCycles += cycles
			} else {
				cs.MemWaitCycles += cycles
			}
			if t.cluster.prof != nil {
				t.cluster.prof.Stall(int(t.blockPC), cycles)
			}
			if t.cluster.evRing != nil {
				kind := trace.EvMemWait
				if t.waitPS {
					kind = trace.EvPSWait
				}
				t.cluster.evRing.Emit(trace.Event{TS: t.memWaitStart, Dur: wait,
					Kind: kind, Op: t.blockOp, Ctx: int32(t.id), PC: t.blockPC})
			}
		}
		t.waitPS = false
	}
	t.setState(tcuRunning)
	t.sys.wakeClusters(now)
}

// finish marks the TCU done for this spawn and notifies the spawn unit.
// Posted stores must drain first, so the end of the spawn statement orders
// memory as the XMT memory model requires. Called from issue (compute
// phase), so the spawn-unit notification is deferred to commit.
func (t *TCU) finish(now engine.Time) {
	if t.pendingNB > 0 {
		t.setState(tcuDraining)
		return
	}
	t.setState(tcuDone)
	t.cluster.ob.done(t)
}

// trySend enqueues a package into the cluster's ICN send queue. now is the
// issuing cycle's edge time.
func (t *TCU) trySend(p *Package, now engine.Time) bool {
	return t.cluster.send(p, now)
}

// deliver commits an expiring package back at the TCU (the "commit stage"
// of the paper's package life cycle).
func (t *TCU) deliver(p *Package, now engine.Time) {
	// Any delivery invalidates the fast send-retry stash: a prefetch fill
	// can turn the retried load into a buffer hit, so re-run the full issue.
	t.pendingSend = nil
	if !t.alive {
		// The TCU was decommissioned while this package was in flight (only
		// possible for non-blocking responses: a TCU with a blocking request
		// outstanding never reaches its decommission safe point). Drop it.
		return
	}
	if p.Err != nil {
		t.sys.fail(&funcmodel.RuntimeError{PC: 0, Line: p.In.Line, In: p.In, Err: p.Err})
		return
	}
	switch p.Kind {
	case PkgLoad:
		t.ctx.SetReg(p.In.Rd, p.Data)
		if p.In.Op == isa.OpLwRO && t.cluster.ro != nil {
			t.cluster.ro.Fill(p.Addr, t.sys.clusterClock.Cycle(now))
		}
		t.recordLoadLatency(p, now)
		t.unblock(now)
	case PkgPsm:
		t.ctx.SetReg(p.In.Rd, p.Data)
		// Prefix-sum completion orders memory: flush stale prefetches.
		t.pbuf.invalidateAll()
		t.recordLoadLatency(p, now)
		t.unblock(now)
	case PkgStore:
		t.unblock(now)
	case PkgStoreNB:
		t.pendingNB--
		switch {
		case t.state == tcuWaitFence && t.pendingNB == 0:
			t.unblock(now)
		case t.state == tcuDraining && t.pendingNB == 0:
			t.setState(tcuDone)
			if t.failing {
				// Thread already finished; only the drain held the
				// decommission back. Delivery runs on the scheduler
				// goroutine, so decommission directly.
				t.sys.decommissionTCU(t, true, false, now)
			} else {
				t.sys.spawn.tcuDone(t, now)
			}
		default:
			t.sys.wakeClusters(now)
		}
	case PkgPrefetch:
		la := p.LineAddr
		for i := range t.pbuf.entries {
			e := &t.pbuf.entries[i]
			if e.valid && e.lineAddr == la && !e.ready {
				e.ready = true
				e.data = p.Line
				if e.waiter != nil {
					w := e.waiter
					e.waiter = nil
					if w.waitingPbuf {
						w.waitingPbuf = false
						if t.sys.race != nil {
							// Delivery runs on the scheduler goroutine:
							// record the waiter's read directly.
							t.sys.raceRead(w.id, w.pendingPbufAddr, w.pendingPbufLoad.Line, now)
						}
						w.ctx.SetReg(w.pendingPbufLoad.Rd, extractPbuf(e, w.pendingPbufLoad, w.pendingPbufAddr))
						t.sys.Stats.PrefetchHits++
						w.unblock(now)
					}
				}
				break
			}
		}
		t.sys.wakeClusters(now)
	}
}

func (t *TCU) recordLoadLatency(p *Package, now engine.Time) {
	t.sys.Stats.LoadLatencySum += uint64(now - p.Issued)
	t.sys.Stats.LoadLatencyCount++
	t.sys.Stats.LoadLatency.Observe(uint64(now - p.Issued))
}

// psDelivered commits a prefix-sum/global-register response.
func (t *TCU) psDelivered(in isa.Instr, old int32, now engine.Time) {
	switch in.Op {
	case isa.OpPs, isa.OpGrr:
		t.ctx.SetReg(in.Rd, old)
	}
	if in.Op == isa.OpPs {
		// ps completion orders memory like psm: flush stale prefetches.
		t.pbuf.invalidateAll()
		// xmtsan: a ps on an application global register is the release/
		// acquire primitive; the virtual-thread-id grab at spawn onset is
		// allocation, not synchronization.
		if t.sys.race != nil && in.G != isa.GRegSpawn {
			t.sys.race.Sync(t.id)
		}
	}
	t.unblock(now)
}
