package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardCycler is a Cycler whose tick is split into two phases so many
// shards can tick concurrently inside one scheduler event:
//
//   - Tick (the compute phase) runs in parallel across shards and must be
//     side-effect-local: it may mutate only shard-private state and read
//     shared state, deferring every shared mutation into a shard-local
//     outbox.
//   - Commit (the serial phase) drains the outbox. Commits run on the
//     scheduler goroutine in shard order after every shard's Tick has
//     returned, so the interleaving of shared effects — scheduler sequence
//     numbers included — is identical to a fully serial simulation.
type ShardCycler interface {
	Cycler
	Commit(now Time)
}

// WindowShard extends ShardCycler with the bounded-lookahead window
// protocol: a shard can execute several consecutive cycles inside one
// scheduler event, buffering every shared effect with per-cycle marks, and
// replay them afterwards in (cycle, shard) order — the exact interleaving
// the single-cycle engine produces.
//
// Within a window the shard's inputs are frozen: the window driver
// guarantees no other scheduler event fires between the window's cycles
// (the span is bounded by Scheduler.NextTime), so a cycle's compute phase
// sees precisely the state it would have seen had each cycle been its own
// event. The one way freshness can still leak is through the shard's own
// deferred effects: a record that would schedule work or mutate shared
// machine state ("window-closing") truncates the window at the cycle that
// produced it.
type WindowShard interface {
	ShardCycler
	// BeginWindow starts a window.
	BeginWindow()
	// WindowTick runs one cycle of the window and closes its effect
	// segment. closing reports that this cycle buffered a window-closing
	// effect (or that a buffer is near capacity), so no later cycle may
	// execute in this window.
	WindowTick(cycle int64, now Time) (busy, closing bool)
	// CommitCycle replays the buffered effects of window cycle k at that
	// cycle's edge time.
	CommitCycle(k int, now Time)
	// EndWindow releases window buffers after every cycle has committed.
	EndWindow()
}

// poolJob is one ForEach invocation, shared by every participating worker.
type poolJob struct {
	n    int32
	next *int32 // atomic work-stealing index
	fn   func(i int)
	wg   *sync.WaitGroup
	pan  *atomic.Value // first panic from a helper goroutine
}

func (j poolJob) work() {
	for {
		i := atomic.AddInt32(j.next, 1) - 1
		if i >= j.n {
			return
		}
		j.fn(int(i))
	}
}

// WorkerPool is a persistent pool of worker goroutines for data-parallel
// fan-out inside a single scheduler event. The goroutines block on a job
// channel between barriers, so the per-event cost is two channel hops per
// helper rather than goroutine creation.
type WorkerPool struct {
	n       int
	jobs    chan poolJob
	started bool
	// inline short-circuits ForEach on single-CPU hosts: with one
	// physical execution slot the helpers cannot overlap the caller, so
	// the channel round trips are pure dispatch overhead.
	inline bool
}

// NewWorkerPool returns a pool of n workers (n <= 1 runs every call
// inline). Goroutines start lazily on first use.
func NewWorkerPool(n int) *WorkerPool {
	return &WorkerPool{n: n, inline: runtime.GOMAXPROCS(0) == 1}
}

// Size returns the worker count; a nil pool counts as one (serial).
func (p *WorkerPool) Size() int {
	if p == nil {
		return 1
	}
	return p.n
}

// ForEach runs fn(i) for every i in [0, n) spread across the pool and
// returns once all calls have completed. The calling goroutine participates
// as one of the workers. A nil or single-worker pool — or any pool on a
// single-CPU host — runs the calls inline, in index order.
func (p *WorkerPool) ForEach(n int, fn func(i int)) {
	if p == nil || p.n <= 1 || n <= 1 || p.inline {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if !p.started {
		p.start()
	}
	helpers := p.n - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var next int32
	var wg sync.WaitGroup
	var pan atomic.Value
	wg.Add(helpers)
	job := poolJob{n: int32(n), next: &next, fn: fn, wg: &wg, pan: &pan}
	for i := 0; i < helpers; i++ {
		p.jobs <- job
	}
	job.work()
	wg.Wait()
	if v := pan.Load(); v != nil {
		panic(v)
	}
}

// RunWorkers runs fn(w) for every w in [0, k) with each call on its own
// goroutine, the caller participating as worker 0. Unlike ForEach there is
// no work stealing: every worker is live concurrently, so fn bodies may
// synchronize with one another (the lockstep window barrier depends on
// this). k must not exceed Size(); it is clamped. k <= 1 runs inline.
func (p *WorkerPool) RunWorkers(k int, fn func(w int)) {
	if p != nil && k > p.n {
		k = p.n
	}
	if p == nil || k <= 1 {
		fn(0)
		return
	}
	if !p.started {
		p.start()
	}
	var wg sync.WaitGroup
	var pan atomic.Value
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		w := w
		next := int32(0)
		p.jobs <- poolJob{n: 1, next: &next, fn: func(int) { fn(w) }, wg: &wg, pan: &pan}
	}
	fn(0)
	wg.Wait()
	if v := pan.Load(); v != nil {
		panic(v)
	}
}

func (p *WorkerPool) start() {
	p.jobs = make(chan poolJob)
	for i := 0; i < p.n-1; i++ {
		go func() {
			for job := range p.jobs {
				func() {
					defer job.wg.Done()
					defer func() {
						if r := recover(); r != nil {
							job.pan.CompareAndSwap(nil, r)
						}
					}()
					job.work()
				}()
			}
		}()
	}
	p.started = true
}

// Close stops the worker goroutines. The pool restarts lazily on the next
// ForEach, so Close is safe to call between simulation runs. Nil-safe.
func (p *WorkerPool) Close() {
	if p == nil || !p.started {
		return
	}
	close(p.jobs)
	p.started = false
}

// spinBarrier synchronizes the lockstep window workers between cycles. It
// is generation-counted: the last arriver of each cycle becomes the
// coordinator, decides whether the window continues, and publishes the
// decision together with the next generation number. Workers spin with
// Gosched, so oversubscribed hosts (more workers than cores) stay live.
type spinBarrier struct {
	n       int32
	arrived atomic.Int32
	// state packs (generation << 1) | continueBit.
	state atomic.Uint64
}

func (b *spinBarrier) reset(n int32) {
	b.n = n
	b.arrived.Store(0)
	b.state.Store(0)
}

// arrive returns true on the coordinator (last arriver of this cycle).
func (b *spinBarrier) arrive() bool {
	return b.arrived.Add(1) == b.n
}

// publish releases the workers of generation gen with the continue bit.
// Coordinator only; it must reset arrived first.
func (b *spinBarrier) publish(gen int, cont bool) {
	b.arrived.Store(0)
	v := uint64(gen+1) << 1
	if cont {
		v |= 1
	}
	b.state.Store(v)
}

// await blocks until the coordinator publishes generation gen's decision
// and returns the continue bit.
func (b *spinBarrier) await(gen int) bool {
	for {
		v := b.state.Load()
		if int(v>>1) == gen+1 {
			return v&1 != 0
		}
		runtime.Gosched()
	}
}

// ParallelMacroActor is a MacroActor whose components tick concurrently on
// a WorkerPool and then commit serially in component order. Like
// MacroActor it consumes one event per cycle regardless of component
// count; unlike it, the compute phase of that event can use several host
// cores. With a nil pool (the cycle engine's default) it runs the exact
// serial two-phase loop, which is why workers=1 and workers=N produce
// bit-identical results (the commit order, not the compute order, defines
// all shared-state interleavings).
//
// When its components implement WindowShard and a lookahead > 1 is set,
// one scheduler event covers up to `lookahead` consecutive cycles (a
// bounded-lookahead window): the span is capped by the next foreign
// scheduler event and truncated at the first cycle that buffers a
// window-closing effect, then every buffered effect replays in
// (cycle, shard) order — reproducing the single-cycle engine bit for bit
// while paying scheduler and commit overhead once per window.
type ParallelMacroActor struct {
	Name  string
	sched *Scheduler
	clock *Clock
	pool  *WorkerPool
	comps []ShardCycler
	busy  []bool

	// Window mode (SetLookahead). wcomps mirrors comps and is non-nil in
	// every slot only when every component supports windows.
	lookahead  int
	allWindows bool
	wcomps     []WindowShard

	// Hoisted single-cycle tick closure (avoids one allocation per event).
	tickFn    func(i int)
	tickCycle int64
	tickNow   Time

	bar spinBarrier

	scheduled bool
	pending   *Event
}

// NewParallelMacroActor creates a parallel macro-actor on the given clock
// domain. A nil pool means serial execution.
func NewParallelMacroActor(name string, sched *Scheduler, clock *Clock, pool *WorkerPool) *ParallelMacroActor {
	m := &ParallelMacroActor{Name: name, sched: sched, clock: clock, pool: pool,
		lookahead: 1, allWindows: true}
	m.tickFn = func(i int) { m.busy[i] = m.comps[i].Tick(m.tickCycle, m.tickNow) }
	return m
}

// Add registers a component shard.
func (m *ParallelMacroActor) Add(c ShardCycler) {
	m.comps = append(m.comps, c)
	m.busy = append(m.busy, false)
	w, ok := c.(WindowShard)
	if !ok {
		m.allWindows = false
	}
	m.wcomps = append(m.wcomps, w)
}

// Len returns the number of component shards.
func (m *ParallelMacroActor) Len() int { return len(m.comps) }

// Workers returns the number of host workers ticking the shards.
func (m *ParallelMacroActor) Workers() int { return m.pool.Size() }

// SetLookahead configures the bounded-lookahead window: w is the maximum
// cycles one scheduler event may cover (w <= 1 restores the single-cycle
// engine). Results are bit-identical for every w; see docs/PERF.md.
func (m *ParallelMacroActor) SetLookahead(w int) {
	if w < 1 {
		w = 1
	}
	m.lookahead = w
}

// Lookahead returns the configured window bound (1 = single-cycle engine).
func (m *ParallelMacroActor) Lookahead() int { return m.lookahead }

// Wake ensures a notification is scheduled for the next clock edge.
// Idempotent within a cycle, like MacroActor.Wake.
func (m *ParallelMacroActor) Wake(now Time) {
	if m.scheduled {
		return
	}
	at := m.clock.NextEdge(now)
	if at == MaxTime {
		return // clock gated off; re-woken on Enable
	}
	m.scheduled = true
	m.pending = m.sched.Schedule(at, PrioClock, m)
}

// Notify runs one lookahead window (possibly a single cycle): the parallel
// compute phase(s), then the serial commit replay in (cycle, shard) order,
// and re-arms the clock edge if any shard still has work.
func (m *ParallelMacroActor) Notify(now Time) {
	m.scheduled = false
	m.pending = nil
	span := 1
	if m.lookahead > 1 && m.allWindows && len(m.comps) > 0 {
		span = m.windowSpan(now)
	}
	if span <= 1 {
		m.notifyOne(now)
		return
	}
	m.notifyWindow(now, span)
}

// windowSpan bounds the next window: no more than lookahead cycles, and
// only cycles whose edges fall strictly before the next foreign scheduler
// event (whose effects the window's frozen-input contract must not miss).
func (m *ParallelMacroActor) windowSpan(now Time) int {
	period := m.clock.Period()
	if period <= 0 {
		return 1
	}
	span := m.lookahead
	if nt := m.sched.NextTime(); nt != MaxTime {
		avail := (nt - now + period - 1) / period
		if avail < Time(span) {
			span = int(avail)
		}
	}
	if span < 1 {
		span = 1
	}
	return span
}

// notifyOne is the exact single-cycle two-phase engine (lookahead=1 and
// windows that collapse to one cycle).
func (m *ParallelMacroActor) notifyOne(now Time) {
	m.tickCycle, m.tickNow = m.clock.Cycle(now), now
	m.pool.ForEach(len(m.comps), m.tickFn)
	any := false
	for i, c := range m.comps {
		c.Commit(now)
		if m.busy[i] {
			any = true
		}
	}
	if any {
		m.Wake(now)
	}
}

// notifyWindow runs a conservative lockstep window: every shard ticks
// cycle k before any shard ticks cycle k+1, so a window-closing effect in
// any shard truncates the window for all of them without speculation. The
// commit replay then runs once for the whole window.
func (m *ParallelMacroActor) notifyWindow(now Time, span int) {
	comps := m.wcomps
	period := m.clock.Period()
	cycle := m.clock.Cycle(now)
	for _, c := range comps {
		c.BeginWindow()
	}
	var last int
	var anyBusy bool
	nw := m.pool.Size()
	if nw > len(comps) {
		nw = len(comps)
	}
	if nw <= 1 {
		last, anyBusy = m.lockstepSerial(cycle, now, period, span)
	} else {
		last, anyBusy = m.lockstepParallel(nw, cycle, now, period, span)
	}
	m.commitWindow(now, period, last)
	if anyBusy {
		m.Wake(now + Time(last)*period)
	}
}

func (m *ParallelMacroActor) lockstepSerial(cycle int64, now, period Time, span int) (last int, anyBusy bool) {
	comps := m.wcomps
	for k := 0; k < span; k++ {
		nowK := now + Time(k)*period
		busy, closing := false, false
		for _, c := range comps {
			b, cl := c.WindowTick(cycle+int64(k), nowK)
			busy = busy || b
			closing = closing || cl
		}
		last, anyBusy = k, busy
		if closing || !busy {
			break
		}
	}
	return last, anyBusy
}

// lockstepParallel is the barrier-elided parallel window: one job dispatch
// per window with an atomic spin barrier per cycle, instead of two channel
// hops per helper per cycle.
func (m *ParallelMacroActor) lockstepParallel(nw int, cycle int64, now, period Time, span int) (last int, anyBusy bool) {
	comps := m.wcomps
	n := len(comps)
	m.bar.reset(int32(nw))
	var busyF, closeF atomic.Int32
	var lastK atomic.Int32
	var lastBusy atomic.Int32
	m.pool.RunWorkers(nw, func(w int) {
		lo, hi := n*w/nw, n*(w+1)/nw
		for k := 0; ; k++ {
			nowK := now + Time(k)*period
			busy, closing := false, false
			for _, c := range comps[lo:hi] {
				b, cl := c.WindowTick(cycle+int64(k), nowK)
				busy = busy || b
				closing = closing || cl
			}
			if busy {
				busyF.Store(1)
			}
			if closing {
				closeF.Store(1)
			}
			if m.bar.arrive() {
				wasBusy := busyF.Load() == 1
				cont := k+1 < span && wasBusy && closeF.Load() == 0
				lastK.Store(int32(k))
				if wasBusy {
					lastBusy.Store(1)
				} else {
					lastBusy.Store(0)
				}
				if cont {
					busyF.Store(0)
					closeF.Store(0)
				}
				m.bar.publish(k, cont)
			}
			if !m.bar.await(k) {
				return
			}
		}
	})
	return int(lastK.Load()), lastBusy.Load() == 1
}

// commitWindow replays every shard's buffered effects for cycles [0,last]
// in (cycle, shard) order — the serial interleaving the single-cycle
// engine produces — then releases the window buffers.
func (m *ParallelMacroActor) commitWindow(now, period Time, last int) {
	comps := m.wcomps
	for k := 0; k <= last; k++ {
		nowK := now + Time(k)*period
		for _, c := range comps {
			c.CommitCycle(k, nowK)
		}
	}
	for _, c := range comps {
		c.EndWindow()
	}
}
