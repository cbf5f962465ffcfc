package cycle

import (
	"fmt"
	"math/bits"

	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// Cluster groups TCUs and the resources they share: the expensive multiply/
// divide and floating-point units, the cluster read-only cache, and the ICN
// send port (paper Fig. 1 and §II). All clusters tick inside one
// macro-actor on the cluster clock domain.
//
// Cluster implements engine.WindowShard: under the bounded-lookahead engine
// it executes several cycles per scheduler event, marking the outbox with
// per-cycle segments, and replays one segment per CommitCycle in (cycle,
// cluster) order — bit-identical to the single-cycle engine.
type Cluster struct {
	sys  *System
	id   int
	tcus []*TCU

	// Shared functional units: freeAt[i] is the cluster cycle unit i
	// becomes available. unitsBusyUntil caches the max over both pools so
	// the tick's "units still draining" check is O(1).
	fpuFreeAt      []int64
	mduFreeAt      []int64
	unitsBusyUntil int64

	// ro is the cluster read-only cache (tags only; constants are read from
	// shared memory and the tags are invalidated at spawn boundaries).
	ro *tagArray

	// sendQ is the ICN injection queue, drained by the ICN macro-actor at
	// ICNInjectPerCyc packages per ICN cycle.
	sendQ    []*Package
	sendQCap int

	// ob holds the window's deferred shared-state effects; Tick (the compute
	// phase) may run concurrently with other clusters' and must route every
	// shared mutation through here (see outbox.go).
	ob outbox

	// evRing buffers this cluster's structured trace events between outbox
	// commits (nil when event tracing is off). Filled from the compute phase
	// and from this cluster's own delivery events; both are exclusive to the
	// cluster, so no locking is needed.
	evRing *trace.Ring

	// prof is this cluster's cycle-profiler shard (nil when profiling is
	// off); same ownership rules as evRing.
	prof *stats.ProfShard

	// tickMask has bit i set when TCU i can make progress from its own tick
	// (running, counting down a stall, or checking a fence); memory-blocked,
	// idle, done and dead TCUs are skipped — their Tick is a no-op by
	// construction. Maintained by TCU.setState. maskOK is false for
	// clusters with more than 64 TCUs (full-scan fallback).
	tickMask uint64
	maskOK   bool
	// nActive counts TCUs in any state but idle/done/dead: the BusyCycles
	// attribution check without scanning every TCU.
	nActive int

	// Bounded-lookahead window state (engine.WindowShard): the absolute
	// cluster cycle of window cycle 0.
	winBase int64

	// pkgFree recycles Packages. Allocation happens in this cluster's
	// compute phase; System.route frees a package after its delivery
	// commits. The two never overlap in time (deliveries are scheduler
	// events, the compute phase runs between them), so no locking is needed.
	pkgFree []*Package
}

func newCluster(sys *System, id int) *Cluster {
	cfg := sys.Cfg
	c := &Cluster{
		sys:       sys,
		id:        id,
		fpuFreeAt: make([]int64, cfg.FPUsPerCluster),
		mduFreeAt: make([]int64, cfg.MDUsPerCluster),
		sendQCap:  8 * cfg.ICNInjectPerCyc,
	}
	if cfg.ROCacheLines > 0 {
		c.ro = newTagArray(cfg.ROCacheLines, 2, cfg.ROCacheLineSize)
	}
	for i := 0; i < cfg.TCUsPerCluster; i++ {
		t := &TCU{
			sys:     sys,
			cluster: c,
			id:      id*cfg.TCUsPerCluster + i,
			local:   i,
			pbuf:    newPrefetchBuffer(cfg.PrefetchBufEntries, cfg.CacheLineSize),
		}
		t.state = tcuIdle
		t.alive = true
		c.tcus = append(c.tcus, t)
	}
	c.maskOK = len(c.tcus) <= 64
	return c
}

// Tick advances every TCU of the cluster one cluster cycle.
func (c *Cluster) Tick(cycle int64, now engine.Time) bool {
	busy := false
	if c.maskOK {
		// Iterate a copy of the mask: state transitions during the loop
		// (e.g. a stall expiring into running) edit c.tickMask, but the
		// skipped TCUs' Ticks are pure no-ops, so the visit set is exactly
		// the legacy full scan's set of TCUs that could do anything.
		for m := c.tickMask; m != 0; m &= m - 1 {
			if c.tcus[bits.TrailingZeros64(m)].Tick(cycle, now) {
				busy = true
			}
		}
		if c.nActive > 0 {
			c.sys.Stats.Cluster[c.id].BusyCycles++
		}
	} else {
		active := false
		for _, t := range c.tcus {
			if t.Tick(cycle, now) {
				busy = true
			}
			if t.state != tcuIdle && t.state != tcuDone && t.state != tcuDead {
				active = true
			}
		}
		if active {
			c.sys.Stats.Cluster[c.id].BusyCycles++
		}
	}
	// Shared units still draining keep the domain ticking so stalled TCUs
	// observe their completion cycles.
	if c.unitsBusyUntil > cycle {
		busy = true
	}
	return busy
}

// acquire requests a shared unit of the given class at the given cycle.
// On success it returns the operation latency to stall for.
func (c *Cluster) acquire(unit isa.Unit, cycle, latency int64) (int64, bool) {
	var pool []int64
	if unit == isa.UnitFPU {
		pool = c.fpuFreeAt
	} else {
		pool = c.mduFreeAt
	}
	for i := range pool {
		if pool[i] <= cycle {
			pool[i] = cycle + latency
			if pool[i] > c.unitsBusyUntil {
				c.unitsBusyUntil = pool[i]
			}
			return latency, true
		}
	}
	return 0, false
}

// allocPkg takes a Package from the cluster freelist (or allocates one).
// Compute-phase only; the matching free happens in System.route after the
// package's delivery commits.
func (c *Cluster) allocPkg() *Package {
	if n := len(c.pkgFree); n > 0 {
		p := c.pkgFree[n-1]
		c.pkgFree[n-1] = nil
		c.pkgFree = c.pkgFree[:n-1]
		return p
	}
	return new(Package)
}

// freePkg returns a delivered (or never-escaped) package to the freelist.
func (c *Cluster) freePkg(p *Package) {
	*p = Package{}
	c.pkgFree = append(c.pkgFree, p)
}

// Commit drains the whole outbox — the serial phase of a single-cycle
// cluster tick (engine.ShardCycler). Records replay in the exact order the
// compute phase produced them, and clusters commit in cluster-id order, so
// scheduler sequence numbers, prefix-sum slots, program output and shared
// statistics end up identical to a fully serial simulation.
func (c *Cluster) Commit(now engine.Time) {
	ev := 0
	if c.evRing != nil {
		ev = c.evRing.Len()
	}
	c.replay(0, int32(len(c.ob.recs)), 0, int32(len(c.ob.ops)), 0, int32(ev), now)
	if c.sys.evlog != nil {
		c.sys.evlog.ResetRing(c.evRing)
	}
	c.ob.reset()
}

// replay commits one contiguous range of the outbox: records [rlo,rhi),
// the op-count stream [olo,ohi), and ring events [elo,ehi). Counted ops
// issued before a record flush before that record replays, preserving the
// serial interleaving of counts with effects.
func (c *Cluster) replay(rlo, rhi, olo, ohi, elo, ehi int32, now engine.Time) {
	s := c.sys
	if s.evlog != nil && ehi > elo {
		s.evlog.DrainRange(c.evRing, int(elo), int(ehi))
	}
	cur := olo
	for i := rlo; i < rhi; i++ {
		r := &c.ob.recs[i]
		// Once the simulation has failed or halted, stop replaying: a later
		// record from the same tick (a ps request, a syscall print) would
		// otherwise still take effect — bumping PsOps for a request whose
		// response can never run, or printing past a halt — which both
		// double-counts against the serial semantics and varies with how
		// much work the tick batched. First failure wins; the rest of the
		// outbox is discarded. (See TestCommitStopsReplayAfterFailure.)
		if s.err != nil || s.halted {
			*r = obRec{}
			continue
		}
		if r.opsIdx > cur {
			s.Stats.CountInstrs(c.ob.ops[cur:r.opsIdx], c.id)
			cur = r.opsIdx
		}
		switch r.kind {
		case obStat:
			*r.stat += r.n
		case obTrace:
			s.traceFn(r.t.id, r.pc, r.in, now)
		case obPS:
			s.ps.request(r.t, r.in, now)
		case obSys:
			halt, err := s.Machine.DoSys(&r.t.ctx, r.in)
			if err != nil {
				s.fail(&funcmodel.RuntimeError{PC: r.pc, Line: r.in.Line, In: r.in, Err: err})
			} else if halt {
				s.halt()
			}
		case obWakeICN:
			s.wakeICN(now)
		case obAsync:
			s.scheduleAsyncDeliver(r.pkg, r.at)
		case obDone:
			s.spawn.tcuDone(r.t, now)
		case obDecomm:
			// The TCU hit its safe point mid-thread: decommission and
			// re-dispatch the orphaned virtual thread.
			s.decommissionTCU(r.t, true, true, now)
		case obFail:
			s.fail(r.err)
		case obRace:
			s.raceRead(r.t.id, uint32(r.n), r.in.Line, now)
		}
		*r = obRec{}
	}
	if ohi > cur && s.err == nil && !s.halted {
		s.Stats.CountInstrs(c.ob.ops[cur:ohi], c.id)
	}
}

// BeginWindow opens a lookahead window (engine.WindowShard).
func (c *Cluster) BeginWindow() {
	c.ob.segs = c.ob.segs[:0]
	c.ob.closing = false
}

// WindowTick runs one window cycle's compute phase and marks its segment.
func (c *Cluster) WindowTick(cycle int64, now engine.Time) (busy, closing bool) {
	if len(c.ob.segs) == 0 {
		c.winBase = cycle
	}
	busy = c.Tick(cycle, now)
	ev := 0
	if c.evRing != nil {
		ev = c.evRing.Len()
	}
	closing = c.ob.mark(cycle, ev)
	// Keep enough ring headroom for one more cycle's worth of events: a
	// near-full ring closes the window, so multi-cycle batching can never
	// drop an event the single-cycle engine would have kept (which drains
	// the ring every cycle).
	if !closing && c.evRing != nil && c.evRing.Cap()-c.evRing.Len() < len(c.tcus) {
		closing = true
	}
	return busy, closing
}

// CommitCycle replays window cycle k's outbox segment at that cycle's edge
// time (engine.WindowShard). Commits run serially, all clusters at cycle k
// before any cluster at cycle k+1, reproducing the single-cycle engine's
// (cycle, cluster) interleaving exactly.
func (c *Cluster) CommitCycle(k int, now engine.Time) {
	if k >= len(c.ob.segs) {
		return
	}
	s := c.sys
	seg := &c.ob.segs[k]
	// Cycle 0 drains ring events from 0: events emitted by serial contexts
	// between windows (delivery unblocks, PS responses) sit at the front of
	// the ring, and the single-cycle engine drains them at its next commit.
	var rlo, olo, elo int32
	if k > 0 {
		prev := &c.ob.segs[k-1]
		rlo, olo, elo = prev.rec, prev.op, prev.ev
	}
	// Replay-order guard: a segment claiming a cycle other than winBase+k
	// would silently reorder shared effects against other clusters'. Fail
	// loudly (diagnostic, first-failure-wins discard) instead of
	// corrupting state.
	if want := c.winBase + int64(k); seg.cycle != want {
		s.beginCommit(want, now)
		s.fail(fmt.Errorf("cycle: window replay out of order: cluster %d segment %d buffered effects for cycle %d, expected %d (window start %d)",
			c.id, k, seg.cycle, want, c.winBase))
		s.endCommit()
		return
	}
	s.beginCommit(seg.cycle, now)
	c.replay(rlo, seg.rec, olo, seg.op, elo, seg.ev, now)
	s.endCommit()
}

// EndWindow closes the window after every cycle's segment has committed.
func (c *Cluster) EndWindow() {
	if c.sys.evlog != nil {
		c.sys.evlog.ResetRing(c.evRing)
	}
	c.ob.reset()
}

// send enqueues a package for ICN injection; it fails (backpressure) when
// the send queue is full, making the TCU retry next cycle. In asynchronous
// interconnect mode the package leaves through the handshake port instead.
// Runs in the compute phase: injection-port state is cluster-local, but the
// ICN wake / delivery scheduling and traversal statistics are deferred.
// now is the issuing cycle's edge time (under lookahead this runs ahead of
// the scheduler clock, so Sched.Now() would be wrong).
func (c *Cluster) send(p *Package, now engine.Time) bool {
	p.Module = c.sys.moduleOf(p.Addr)
	if c.sys.Cfg.ICNAsync {
		// Backpressure: refuse when the port has a deep backlog.
		if c.sys.asyncPortFree[c.id] > now+8*c.sys.Cfg.ICNAsyncGapTicks {
			c.sys.Stats.Cluster[c.id].SendStallCycles++
			return false
		}
		arrive := c.sys.asyncDepart(p, c.id, now)
		c.ob.stat(&c.sys.Stats.ICNTraversals, 1)
		c.ob.stat(&c.sys.Stats.ICNHops, uint64(c.sys.icn.hopsPerTraversal))
		c.ob.async(p, arrive)
		return true
	}
	if len(c.sendQ) >= c.sendQCap {
		c.sys.Stats.Cluster[c.id].SendStallCycles++
		return false
	}
	c.sendQ = append(c.sendQ, p)
	c.ob.wakeICN()
	return true
}

// resetForSpawn prepares the cluster's TCUs for a new spawn.
func (c *Cluster) resetForSpawn(pc int, mask uint32, bcast *[isa.NumRegs]int32) {
	if c.ro != nil {
		c.ro.InvalidateAll()
	}
	for _, t := range c.tcus {
		if t.alive {
			t.resetForSpawn(pc, mask, bcast)
		}
	}
}

// quiesce returns all surviving TCUs to idle after a join.
func (c *Cluster) quiesce() {
	for _, t := range c.tcus {
		if t.alive {
			t.setState(tcuIdle)
			t.pendingSend = nil
		}
	}
	if c.ro != nil {
		c.ro.InvalidateAll()
	}
}
