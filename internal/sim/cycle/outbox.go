package cycle

import (
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
)

// The cluster macro-actor ticks all clusters inside one scheduler event,
// possibly in parallel across host workers (engine.ParallelMacroActor). To
// keep results bit-identical to serial simulation, the compute phase of a
// cluster tick may mutate only cluster-local state; every effect on shared
// state — scheduler events, global statistics, the prefix-sum unit's pacing
// window, syscalls, the spawn unit's done count — is recorded in the
// cluster's outbox and replayed by Cluster.Commit. Commits run serially in
// cluster-id order, which is exactly the interleaving the serial simulator
// produces, so scheduler sequence numbers, prefix-sum slot assignment,
// program output and statistics all match to the bit.
//
// Under the bounded-lookahead engine a cluster executes several cycles
// before any commit runs, so the outbox additionally carves its buffers
// into per-cycle segments (obSeg): Cluster.CommitCycle replays exactly one
// segment at that cycle's edge time, preserving the (cycle, cluster)
// interleaving of the single-cycle engine.

type obKind uint8

const (
	obStat    obKind = iota // add n to a shared stats counter
	obTrace                 // invoke the instruction trace observer
	obPS                    // submit a prefix-sum / global-register request
	obSys                   // execute a syscall (may print, halt, checkpoint)
	obWakeICN               // wake the ICN macro-actor (send queue non-empty)
	obAsync                 // schedule an async-ICN delivery at time at
	obDone                  // report this TCU done to the spawn unit
	obDecomm                // decommission this TCU (permanent fault at a safe point)
	obFail                  // abort the simulation with err
	obRace                  // record a locally-served read with the race sanitizer
)

// closing reports whether a record kind ends a lookahead window: once the
// effect commits, shared machine state (the scheduler, the prefix-sum
// window, the spawn unit, the ICN's view of the send queue) can change, so
// no later cycle of the same window could have seen frozen inputs.
// Pure-observation kinds (stats, trace, race records) never close.
func (k obKind) closing() bool {
	return k != obStat && k != obTrace && k != obRace
}

type obRec struct {
	kind obKind
	op   isa.Op
	in   isa.Instr
	t    *TCU
	pkg  *Package
	at   engine.Time
	n    uint64
	stat *uint64
	err  error
	pc   int
	// opsIdx is the length of outbox.ops when this record was appended:
	// instruction counts issued before this record flush before it replays.
	opsIdx int32
}

// obSeg marks one window cycle's high-water marks in the outbox buffers
// (exclusive end indices) so CommitCycle can replay a single cycle.
type obSeg struct {
	cycle int64 // absolute cluster cycle, for the replay-order guard
	rec   int32 // end index into recs
	op    int32 // end index into ops
	ev    int32 // end length of the cluster's event ring
}

// outbox accumulates one window's deferred shared effects, in issue order.
// All backing slices are reused across windows.
type outbox struct {
	recs []obRec
	// ops is the instruction-count stream: one isa.Op per counted issue
	// instead of a full obRec, flushed in batches between records
	// (Stats.CountInstrs). This is the hottest append in the simulator.
	ops []isa.Op
	// wokeICN collapses duplicate ICN wakes within one window cycle (Wake
	// is idempotent anyway; this just keeps the outbox small — and the
	// wake is a closer, so the window ends at the cycle that set it).
	wokeICN bool
	// closing records that the current cycle appended a window-closing
	// record; WindowTick consumes and resets it.
	closing bool
	segs    []obSeg
}

func (o *outbox) reset() {
	o.recs = o.recs[:0]
	o.ops = o.ops[:0]
	o.wokeICN = false
	o.closing = false
	o.segs = o.segs[:0]
}

func (o *outbox) add(r obRec) {
	r.opsIdx = int32(len(o.ops))
	o.recs = append(o.recs, r)
	if r.kind.closing() {
		o.closing = true
	}
}

func (o *outbox) count(op isa.Op) {
	o.ops = append(o.ops, op)
}

func (o *outbox) stat(ctr *uint64, n uint64) {
	o.add(obRec{kind: obStat, stat: ctr, n: n})
}

func (o *outbox) trace(t *TCU, pc int, in isa.Instr) {
	o.add(obRec{kind: obTrace, t: t, pc: pc, in: in})
}

func (o *outbox) ps(t *TCU, in isa.Instr) {
	o.add(obRec{kind: obPS, t: t, in: in})
}

func (o *outbox) sys(t *TCU, pc int, in isa.Instr) {
	o.add(obRec{kind: obSys, t: t, pc: pc, in: in})
}

func (o *outbox) wakeICN() {
	if o.wokeICN {
		return
	}
	o.wokeICN = true
	o.add(obRec{kind: obWakeICN})
}

func (o *outbox) async(p *Package, at engine.Time) {
	o.add(obRec{kind: obAsync, pkg: p, at: at})
}

func (o *outbox) done(t *TCU) {
	o.add(obRec{kind: obDone, t: t})
}

func (o *outbox) decomm(t *TCU) {
	o.add(obRec{kind: obDecomm, t: t})
}

func (o *outbox) fail(err error) {
	o.add(obRec{kind: obFail, err: err})
}

// race defers a race-sanitizer read record for a load served entirely
// inside the cluster (prefetch-buffer hit, read-only cache hit) during the
// parallel compute phase. The address rides in n; the source line comes
// from in.Line at commit. Only emitted when race checking is enabled.
func (o *outbox) race(t *TCU, addr uint32, in isa.Instr) {
	o.add(obRec{kind: obRace, t: t, in: in, n: uint64(addr)})
}

// mark closes the current cycle's segment and reports whether it contained
// a window-closing record. evLen is the cluster event ring's length.
func (o *outbox) mark(cycle int64, evLen int) (closing bool) {
	closing = o.closing
	o.segs = append(o.segs, obSeg{
		cycle: cycle,
		rec:   int32(len(o.recs)),
		op:    int32(len(o.ops)),
		ev:    int32(evLen),
	})
	o.closing = false
	return closing
}
