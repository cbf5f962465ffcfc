package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"xmtgo"
	"xmtgo/internal/workloads"
)

// Table I sizes: one virtual thread per TCU of the 1024-TCU chip, 40
// iterations each, as in the repository's Table I benchmarks.
const tableIWork = 40

// BFS graph of the sim-memory workload: vertices and mean degree.
const (
	simBFSVertices = 4096
	simBFSDegree   = 8
)

// simProgram is one program of a simulation round with its expected output.
type simProgram struct {
	name string
	prog *xmtgo.Program
	want string
}

// counters are the simulated statistics a run must reproduce exactly.
type counters struct {
	Cycles, Instrs, CacheHits, CacheMisses, CacheQueueFull, ICNTraversals,
	DRAMAccesses, PsOps, PsmOps, LoadLatencySum, LoadLatencyCount,
	SpawnOverhead, JoinOverhead int64
}

func countersOf(res *xmtgo.SimResult, sys *xmtgo.Simulator) counters {
	st := sys.Stats
	sum := func(xs []uint64) (t int64) {
		for _, x := range xs {
			t += int64(x)
		}
		return t
	}
	return counters{
		Cycles: res.Cycles, Instrs: int64(res.Instrs),
		CacheHits: sum(st.CacheHits), CacheMisses: sum(st.CacheMisses),
		CacheQueueFull: sum(st.CacheQueueFull), ICNTraversals: int64(st.ICNTraversals),
		DRAMAccesses: sum(st.DRAMAccesses), PsOps: int64(st.PsOps), PsmOps: int64(st.PsmOps),
		LoadLatencySum: int64(st.LoadLatencySum), LoadLatencyCount: int64(st.LoadLatencyCount),
		SpawnOverhead: int64(st.SpawnOverheadCycles), JoinOverhead: int64(st.JoinOverheadCycles),
	}
}

func (c *counters) add(o counters) {
	c.Cycles += o.Cycles
	c.Instrs += o.Instrs
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheQueueFull += o.CacheQueueFull
	c.ICNTraversals += o.ICNTraversals
	c.DRAMAccesses += o.DRAMAccesses
	c.PsOps += o.PsOps
	c.PsmOps += o.PsmOps
	c.LoadLatencySum += o.LoadLatencySum
	c.LoadLatencyCount += o.LoadLatencyCount
	c.SpawnOverhead += o.SpawnOverhead
	c.JoinOverhead += o.JoinOverhead
}

// simInstance is a set-up sim-compute or sim-memory workload: compiled
// programs on the 1024-TCU chip with its default settings.
type simInstance struct {
	o     *options
	cfg   xmtgo.Config
	progs []simProgram
	// ref holds each program's counters from the warm-up round; every
	// later run, traced or not, at any worker count, must match them.
	ref []counters
}

func setupSimCompute(o *options) (instance, error) {
	cfg := xmtgo.ConfigChip1024()
	src := workloads.TableI(workloads.ParallelCompute, cfg.TCUs(), tableIWork)
	p, err := buildSim("par-compute", src, "1")
	if err != nil {
		return nil, err
	}
	return &simInstance{o: o, cfg: cfg, progs: []simProgram{p}}, nil
}

func setupSimMemory(o *options) (instance, error) {
	cfg := xmtgo.ConfigChip1024()
	mem, err := buildSim("par-memory", workloads.TableI(workloads.ParallelMemory, cfg.TCUs(), tableIWork), "0")
	if err != nil {
		return nil, err
	}
	g := workloads.RandomGraph(simBFSVertices, simBFSDegree, o.seed)
	par, _ := workloads.BFS(g.N, g.M)
	reached, distSum := hostBFS(g.RowPtr, g.Col)
	bfs, err := buildSim("bfs", par, fmt.Sprintf("%d %d", reached, distSum), g.MemMap())
	if err != nil {
		return nil, err
	}
	return &simInstance{o: o, cfg: cfg, progs: []simProgram{mem, bfs}}, nil
}

func buildSim(name, src, want string, memMaps ...string) (simProgram, error) {
	prog, _, err := xmtgo.Build(name+".c", src, xmtgo.DefaultCompileOptions(), memMaps...)
	if err != nil {
		return simProgram{}, fmt.Errorf("%s: %w", name, err)
	}
	return simProgram{name: name, prog: prog, want: want}, nil
}

// hostBFS is the oracle for the BFS programs: the number of vertices
// reachable from vertex 0 and the sum of their distances, by a queue BFS
// over the CSR arrays the program receives.
func hostBFS(rowPtr, col []int32) (reached int, distSum int64) {
	n := len(rowPtr) - 1
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		reached++
		distSum += int64(dist[v])
		for _, w := range col[rowPtr[v]:rowPtr[v+1]] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return reached, distSum
}

func (s *simInstance) describe(host map[string]any) {
	sys, err := xmtgo.NewSimulator(s.progs[0].prog, s.cfg, nil)
	if err != nil {
		return
	}
	host["config"] = "chip1024"
	host["host_workers"] = sys.HostWorkers()
	host["lookahead"] = sys.Lookahead()
	sys.Release()
}

// simRun is one timed simulation.
type simRun struct {
	c                counters
	newS, runS, relS float64
	ok               bool
	err              string
}

// simulate runs p once under cfg, with a span per simulator call when rec
// is set, and checks halting and output.
func simulate(p simProgram, cfg xmtgo.Config, rec *recorder, op int, prefix string) simRun {
	var out bytes.Buffer
	var sys *xmtgo.Simulator
	var res *xmtgo.SimResult
	var r simRun
	t0 := time.Now()
	err := rec.do(prefix+"new", op, true, func() (err error) {
		sys, err = xmtgo.NewSimulator(p.prog, cfg, &out)
		return err
	})
	t1 := time.Now()
	if err == nil {
		err = rec.do(prefix+"run", op, true, func() (err error) {
			res, err = sys.Run(0)
			return err
		})
	}
	t2 := time.Now()
	r.newS, r.runS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	switch {
	case err != nil:
		r.err = err.Error()
	case !res.Halted:
		r.err = "did not halt"
	case out.String() != p.want:
		r.err = fmt.Sprintf("output %q, want %q", out.String(), p.want)
	default:
		r.ok = true
		r.c = countersOf(res, sys)
	}
	if sys != nil {
		_ = rec.do(prefix+"release", op, true, func() error { sys.Release(); return nil })
	}
	r.relS = time.Since(t2).Seconds()
	return r
}

func (s *simInstance) warm() error {
	s.ref = s.ref[:0]
	for _, p := range s.progs {
		r := simulate(p, s.cfg, nil, 0, "")
		if !r.ok {
			return fmt.Errorf("%s: %s", p.name, r.err)
		}
		s.ref = append(s.ref, r.c)
	}
	return nil
}

// measure runs rounds (every program once) until d has passed. A traced
// phase also runs each program at host_workers=1 outside the round, times
// the simulator calls of both, and writes a CPU profile.
func (s *simInstance) measure(d time.Duration, rec *recorder) (_ *phase, err error) {
	if rec != nil {
		f, ferr := os.Create(s.o.prefix + ".cpu.pprof")
		if ferr != nil {
			return nil, ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return nil, ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	serial := s.cfg
	serial.HostWorkers = 1
	ph := &phase{}
	start := time.Now()
	for round := 0; time.Since(start) < d; round++ {
		rec.setRound(round)
		ok := true
		t0 := time.Now()
		_ = rec.do("round", round, false, func() error {
			for i, p := range s.progs {
				r := simulate(p, s.cfg, rec, round, "cycle.")
				if r.ok && r.c != s.ref[i] {
					r.ok, r.err = false, "simulated counters differ from the warm-up run"
				}
				if !r.ok {
					ok = false
					fmt.Printf("FAIL round %d %s: %s\n", round, p.name, r.err)
					continue
				}
				ph.instrs += float64(r.c.Instrs)
				ph.simSec += r.newS + r.runS + r.relS
			}
			return nil
		})
		lat := time.Since(t0)
		ph.attempted++
		if !ok {
			ph.failed++
		} else {
			ph.good++
			ph.lat = append(ph.lat, float64(lat.Nanoseconds())/1e6)
		}
		if rec == nil {
			continue
		}
		for i, p := range s.progs {
			r := simulate(p, serial, rec, round, "cycle.serial_")
			ph.attempted++
			if !r.ok || r.c != s.ref[i] {
				ph.failed++
				fmt.Printf("FAIL round %d %s at host_workers=1: %s (counters equal: %v)\n",
					round, p.name, r.err, r.c == s.ref[i])
			}
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func (s *simInstance) report(p *phase, r *result) {
	for i, pr := range s.progs {
		c := s.ref[i]
		r.reportf("%s: %d cycles, %d instructions, %d ICN traversals (identical in every run)",
			pr.name, c.Cycles, c.Instrs, c.ICNTraversals)
	}
}

func (s *simInstance) layers(tr *phase, rec *recorder, r *result) error {
	spans := rec.snapshot()
	self := selfTimes(spans)
	newS, newB := roundSums(spans, self, "cycle.new")
	runS, runB := roundSums(spans, self, "cycle.run")
	relS, relB := roundSums(spans, self, "cycle.release")
	serS, _ := roundSums(spans, self, "cycle.serial_run")
	var total counters
	for _, c := range s.ref {
		total.add(c)
	}
	allocs := map[int]float64{}
	for k := range runS {
		allocs[k] = (newB[k] + runB[k] + relB[k]) / (1 << 20)
	}
	perCycle := map[int]float64{}
	for k, v := range runS {
		perCycle[k] = v * 1e9 / float64(total.Cycles)
	}
	l := r.layer
	l["cycle.new_s"] = medianOf(newS)
	l["cycle.run_s"] = medianOf(runS)
	l["cycle.release_s"] = medianOf(relS)
	l["cycle.host_ns_per_sim_cycle"] = medianOf(perCycle)
	l["cycle.alloc_mb"] = medianOf(allocs)
	l["cycle.gc_count"] = float64(tr.gcs) / float64(len(runS))
	l["cycle.serial_run_s"] = medianOf(serS)
	if l["cycle.serial_run_s"] > 0 {
		l["cycle.default_over_serial"] = l["cycle.run_s"] / l["cycle.serial_run_s"]
	}
	sys, err := xmtgo.NewSimulator(s.progs[0].prog, s.cfg, nil)
	if err != nil {
		return err
	}
	l["cycle.host_workers"] = float64(sys.HostWorkers())
	l["cycle.lookahead"] = float64(sys.Lookahead())
	sys.Release()

	l["sim.cycles"] = float64(total.Cycles)
	l["sim.instrs"] = float64(total.Instrs)
	l["sim.ipc"] = float64(total.Instrs) / float64(total.Cycles)
	l["cache.hits"] = float64(total.CacheHits)
	l["cache.misses"] = float64(total.CacheMisses)
	l["cache.queue_full"] = float64(total.CacheQueueFull)
	l["icn.traversals"] = float64(total.ICNTraversals)
	l["dram.accesses"] = float64(total.DRAMAccesses)
	l["ps.ops"] = float64(total.PsOps)
	l["psm.ops"] = float64(total.PsmOps)
	if total.LoadLatencyCount > 0 {
		l["tcu.load_latency_mean_ticks"] = float64(total.LoadLatencySum) / float64(total.LoadLatencyCount)
	}
	l["master.spawn_overhead_cycles"] = float64(total.SpawnOverhead)
	l["master.join_overhead_cycles"] = float64(total.JoinOverhead)
	r.reportf("traced: %d rounds; cycle.run_s %.4f s default vs %.4f s at host_workers=1; CPU profile %s",
		len(runS), l["cycle.run_s"], l["cycle.serial_run_s"], s.o.prefix+".cpu.pprof")
	return nil
}

func (s *simInstance) close() error { return nil }
