package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"xmtgo"
	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/daemon"
	"xmtgo/internal/obs"
	"xmtgo/internal/prng"
	"xmtgo/internal/workloads"
)

const (
	// dRate is the offered load in jobs per second, below the capacity
	// of nproc workers on a 2-CPU host.
	dRate = 60.0
	// dLatencyLimit is the due-to-done latency a job must meet to count
	// towards goodput.
	dLatencyLimit = 100 * time.Millisecond
	// dCheckpointEvery is the daemon's checkpoint period in cycles; long
	// jobs cross several of these boundaries.
	dCheckpointEvery = 50_000
	dWaitTimeout     = 60 * time.Second
	// dTraceCapacity bounds the daemon's lifecycle span ring; a run uses
	// about ten spans per job, and a lost span fails the run.
	dTraceCapacity = 1 << 16
	// dMemBytes is the memory image of every job: the setting of the
	// repository's own daemon benchmark (BenchmarkDaemon), a sixteenth of
	// the fpga64 preset's 16 MiB.
	dMemBytes = "mem_bytes=1048576"
)

// dBlock is the job mix: every block of 50 consecutive arrivals holds
// these units in a seeded order, so each seed offers the same mix. The one
// multi-job unit sends two long jobs and then a higher-priority short job
// in consecutive slots: with both workers busy on long jobs, the priority
// arrival preempts one of them at its next checkpoint boundary.
var dBlock = append(fieldsN(map[string]int{"asm": 24, "pool": 18, "fresh": 5}),
	[]string{"long", "long", "priority"})

// fieldsN expands kind counts into single-job units, in sorted kind order.
func fieldsN(counts map[string]int) [][]string {
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var units [][]string
	for _, k := range kinds {
		for i := 0; i < counts[k]; i++ {
			units = append(units, []string{k})
		}
	}
	return units
}

// Loop trip counts: short jobs finish in about 10k cycles; long jobs run
// about 180k cycles and cross three checkpoint boundaries.
var (
	dShortIters = []int{2000, 2200, 2400, 2600, 2800, 3000, 3200, 3400}
	dLongIters  = 60_000
)

// loopAsm is a serial register loop that stores and prints its trip
// count: register-dominated, so the master passes quiescent points often
// enough for checkpoints.
func loopAsm(iters int) string {
	return fmt.Sprintf(`
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, %d
        li    $t2, 0
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        lw    $v0, 0($t1)
        sys   1
        sys   0
`, iters)
}

// freshXMTC is a small spawn program whose constant k makes every source
// distinct, so the daemon's compile cache misses on it.
func freshXMTC(k int) (src, want string) {
	var total int64
	for i := 0; i < 64; i++ {
		total += int64(i * k % 1000)
	}
	return fmt.Sprintf(`
int total = 0;
int main() {
    spawn(0, 63) {
        int v = $ * %d %% 1000;
        psm(v, total);
    }
    print_int(total);
    return 0;
}`, k), fmt.Sprint(total)
}

// dJob is one planned arrival.
type dJob struct {
	kind string
	spec daemon.JobSpec
	want string        // output known on the host
	due  time.Duration // offset from the phase start
}

// poolJobs are the xmtc sources that repeat, so they hit the compile
// cache after their first submission.
func poolJobs(seed uint64) []dJob {
	var js []dJob
	add := func(name, src, want string) {
		js = append(js, dJob{kind: "pool", want: want, spec: daemon.JobSpec{Name: name, Kind: "xmtc", Source: src}})
	}
	par, _, want := workloads.Reduction(64)
	add("reduction", par, fmt.Sprint(want))
	par, _, want = workloads.VecAdd(64)
	add("vecadd", par, fmt.Sprint(want))
	par, _, last, mid := workloads.PrefixSum(64)
	add("prefixsum", par, fmt.Sprintf("%d %d", last, mid))
	par, _ = workloads.MatMul(4)
	add("matmul", par, fmt.Sprint(workloads.MatMulTrace(4)))
	src, nz := workloads.Compaction(64, 0.5, seed)
	add("compaction", src, fmt.Sprint(nz))
	add("par-compute", workloads.TableI(workloads.ParallelCompute, 64, 10), "1")
	return js
}

// plan draws one phase's arrivals at the offered rate: arrival k is due at
// a uniformly random time within its own slot [k, k+1)/rate, so the rate
// holds over any window of a few slots and runs with different seeds see
// the same load. fresh numbers the fresh sources so that they never repeat
// within a daemon.
func plan(seed uint64, stream uint64, d time.Duration, fresh *int) []dJob {
	rng := prng.NewStream(seed, stream)
	n := int(dRate * d.Seconds())
	slot := float64(time.Second) / dRate
	dues := make([]time.Duration, n)
	for k := range dues {
		dues[k] = time.Duration((float64(k) + rng.Float64()) * slot)
	}
	pool := poolJobs(seed)
	jobs := make([]dJob, 0, n)
	for len(jobs) < n {
		// Within a block each kind cycles through its sources, so every
		// block has the same composition; the seed only orders it.
		var block [][]dJob
		seen := map[string]int{}
		for _, unit := range dBlock {
			var u []dJob
			for _, kind := range unit {
				k := seen[kind]
				seen[kind]++
				var j dJob
				switch kind {
				case "asm", "priority":
					it := dShortIters[k%len(dShortIters)]
					j = dJob{want: fmt.Sprint(it), spec: daemon.JobSpec{Name: "short", Kind: "asm", Source: loopAsm(it)}}
					if kind == "priority" {
						j.spec.Priority = 1
					}
				case "long":
					j = dJob{want: fmt.Sprint(dLongIters), spec: daemon.JobSpec{Name: "long", Kind: "asm", Source: loopAsm(dLongIters)}}
				case "pool":
					j = pool[k%len(pool)]
				case "fresh":
					*fresh++
					src, want := freshXMTC(1000 + *fresh*7 + int(seed%7))
					j = dJob{want: want, spec: daemon.JobSpec{Name: "fresh", Kind: "xmtc", Source: src}}
				}
				j.kind = kind
				u = append(u, j)
			}
			block = append(block, u)
		}
		for _, i := range rng.Perm(len(block)) {
			for _, j := range block[i] {
				j.spec.Tenant = []string{"alpha", "beta"}[rng.Intn(2)]
				if len(jobs) < n {
					j.due = dues[len(jobs)]
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs
}

// dInstance is a set-up daemon-open workload: a daemon on a real on-disk
// data directory and the planned arrivals of each phase.
type dInstance struct {
	cfg    xmtgo.Config
	dir    string
	d      *daemon.Daemon
	plans  [][]dJob
	nPhase int
	seen   map[string]bool // sources submitted so far: compile cache keys
	refs   map[string]dRef
	// The last phase's samples: Submit durations, generator lateness and
	// Wait durations (ms), and the daemon's counters over the phase.
	ack, lag, wait []float64
	info           *daemon.Info
	// The traced phase's lifecycle spans, its job ids (to outcome index)
	// and outcomes.
	layerSpans []obs.Span
	layerIDs   map[string]int
	layerOuts  []dOutcome
}

// dRef is the uninterrupted in-harness reference result of one source.
type dRef struct {
	output, memHash string
	err             error
}

func setupDaemon(o *options) (instance, error) {
	cfg, err := xmtgo.PresetConfig("fpga64")
	if err != nil {
		return nil, err
	}
	if err := cfg.Set(dMemBytes); err != nil {
		return nil, err
	}
	fresh := 0
	plans := [][]dJob{plan(o.seed, 1, o.phase, &fresh)}
	if o.trace {
		plans = append(plans, plan(o.seed, 2, o.phase, &fresh))
	}
	// The expected results are part of the inputs: every planned source's
	// reference result is computed here, so no reference run falls inside
	// a measured phase or its CPU time.
	refs := map[string]dRef{}
	for _, jobs := range plans {
		for _, j := range jobs {
			key := sourceKey(j.spec)
			if _, ok := refs[key]; !ok {
				refs[key] = reference(cfg, j.spec)
			}
		}
	}
	dir := o.prefix + ".daemon"
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Options{
		Config:          cfg,
		DataDir:         dir,
		Workers:         runtime.NumCPU(),
		CheckpointEvery: dCheckpointEvery,
		Retries:         1,
		MaxQueued:       1 << 16,
		TraceCapacity:   dTraceCapacity,
	})
	if err != nil {
		return nil, err
	}
	return &dInstance{cfg: cfg, dir: dir, d: d, plans: plans,
		seen: map[string]bool{}, refs: refs}, nil
}

func (x *dInstance) describe(host map[string]any) {
	host["config"] = "fpga64 " + dMemBytes
	host["daemon_workers"] = x.d.Info().Workers
	host["data_dir_fs"] = fsType(x.dir)
	host["offered_jobs_per_s"] = dRate
	prog, err := xmtgo.Assemble("probe.s", loopAsm(1))
	if err != nil {
		return
	}
	if sys, err := xmtgo.NewSimulator(prog, x.cfg, nil); err == nil {
		host["host_workers"] = sys.HostWorkers()
		host["lookahead"] = sys.Lookahead()
		sys.Release()
	}
}

// warm runs one job so the measured phase does not pay first-use costs
// of the Go runtime.
func (x *dInstance) warm() error {
	st, aerr := x.d.Submit(&daemon.JobSpec{Name: "warm", Kind: "asm", Source: loopAsm(100)})
	if aerr != nil {
		return aerr
	}
	_, aerr = x.d.Wait(st.ID, dWaitTimeout)
	if aerr != nil {
		return aerr
	}
	return nil
}

// sourceKey identifies a source the way the daemon's compile cache does.
func sourceKey(spec daemon.JobSpec) string { return spec.Kind + "\x00" + spec.Source }

// dOutcome is what one client saw.
type dOutcome struct {
	id     string
	status *daemon.JobStatus
	err    string
	// submitS and submitE bracket the Submit call; done is when Wait
	// returned.
	submitS, submitE, done time.Time
	// missedCompile marks the first submission of a source to this
	// daemon, which its compile cache cannot serve.
	missedCompile bool
}

// measure offers the next planned phase open-loop: each arrival is sent at
// its due time by its own client goroutine, which submits and waits. A
// job's latency runs from its due time, so any stall of the generator or
// the daemon is charged to every job it delays.
func (x *dInstance) measure(d time.Duration, rec *recorder) (*phase, error) {
	if x.nPhase >= len(x.plans) {
		return nil, fmt.Errorf("no planned phase left")
	}
	jobs := x.plans[x.nPhase]
	x.nPhase++
	before := x.d.Info()
	outs := make([]dOutcome, len(jobs))
	for i, j := range jobs {
		key := sourceKey(j.spec)
		outs[i].missedCompile = !x.seen[key]
		x.seen[key] = true
	}
	var wg sync.WaitGroup
	start := time.Now()
	lags := pace(start, jobDues(jobs), realClock{}, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[i]
			spec := jobs[i].spec
			o.submitS = time.Now()
			st, aerr := x.d.Submit(&spec)
			o.submitE = time.Now()
			if aerr != nil {
				o.err = "submit: " + aerr.Error()
				o.done = o.submitE
				return
			}
			o.id = st.ID
			fin, aerr := x.d.Wait(st.ID, dWaitTimeout)
			o.done = time.Now()
			if aerr != nil {
				o.err = "wait: " + aerr.Error()
				return
			}
			o.status = fin
		}()
	})
	wg.Wait()
	after := x.d.Info()
	x.info = &daemon.Info{Preemptions: after.Preemptions - before.Preemptions, Retries: after.Retries - before.Retries}

	spans, dropped := x.d.Tracer().Snapshot()
	if dropped > 0 {
		return nil, fmt.Errorf("daemon span ring dropped %d spans; raise dTraceCapacity", dropped)
	}
	ids := map[string]int{}
	for i := range outs {
		if outs[i].id != "" {
			ids[outs[i].id] = i
		}
	}
	ph := &phase{}
	var runNs int64
	for _, s := range spans {
		if _, ok := ids[s.Job]; ok && s.Name == "run" {
			runNs += s.DurNs
		}
	}
	ph.simSec = float64(runNs) / 1e9
	x.ack, x.lag, x.wait = x.ack[:0], x.lag[:0], x.wait[:0]
	var last time.Time
	for i := range outs {
		o, j := &outs[i], jobs[i]
		due := start.Add(j.due)
		ph.attempted++
		x.lag = append(x.lag, ms(lags[i]))
		if o.done.After(last) {
			last = o.done
		}
		if err := x.check(j, o); err != "" {
			ph.failed++
			fmt.Printf("FAIL job %d (%s %s): %s\n", i, j.kind, o.id, err)
			continue
		}
		lat := o.done.Sub(due)
		ph.lat = append(ph.lat, ms(lat))
		x.ack = append(x.ack, ms(o.submitE.Sub(o.submitS)))
		x.wait = append(x.wait, ms(o.done.Sub(o.submitE)))
		ph.instrs += float64(o.status.Result.Instrs)
		if lat <= dLatencyLimit {
			ph.good++
		}
	}
	ph.elapsed = last.Sub(start)

	if rec != nil {
		// Put the daemon's lifecycle spans on the recorder's clock and add
		// the benchmark's own client spans around Submit and Wait.
		off := rec.now() - x.d.Tracer().Now()
		for _, s := range spans {
			if _, ok := ids[s.Job]; ok {
				s.StartNs += off
				ph.spans = append(ph.spans, s)
			}
		}
		for i := range outs {
			o, j := &outs[i], jobs[i]
			if o.id == "" {
				continue
			}
			at := func(t time.Time) int64 { return t.Sub(rec.epoch).Nanoseconds() }
			root := rec.add(span{name: "job", op: i, job: o.id, group: j.spec.Tenant, parent: -1,
				start: at(start.Add(j.due)), end: at(o.done)})
			rec.add(span{name: "daemon.submit", op: i, job: o.id, group: j.spec.Tenant, parent: root,
				start: at(o.submitS), end: at(o.submitE)})
			rec.add(span{name: "daemon.wait", op: i, job: o.id, group: j.spec.Tenant, parent: root,
				start: at(o.submitE), end: at(o.done)})
		}
		x.layerSpans = spans
		x.layerIDs = ids
		x.layerOuts = outs
	}
	return ph, nil
}

func jobDues(jobs []dJob) []time.Duration {
	dues := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		dues[i] = j.due
	}
	return dues
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// check compares a job's outcome with the host-known output and with an
// uninterrupted in-harness reference run of the same source; it returns
// "" when the job is correct.
func (x *dInstance) check(j dJob, o *dOutcome) string {
	if o.err != "" {
		return o.err
	}
	if o.status.State != daemon.StateDone || o.status.Result == nil {
		return fmt.Sprintf("ended %s", o.status.State)
	}
	res := o.status.Result
	if res.Output != j.want {
		return fmt.Sprintf("output %q, host oracle %q", res.Output, j.want)
	}
	ref := x.refs[sourceKey(j.spec)]
	switch {
	case ref.err != nil:
		return "reference run: " + ref.err.Error()
	case res.Output != ref.output:
		return fmt.Sprintf("output %q, reference %q", res.Output, ref.output)
	case res.MemHash != ref.memHash:
		return fmt.Sprintf("mem_hash %s, reference %s", res.MemHash, ref.memHash)
	}
	return ""
}

// reference compiles spec the way the daemon does and simulates it under
// cfg to the end without checkpoints or preemption.
func reference(cfg xmtgo.Config, spec daemon.JobSpec) dRef {
	var unit *asm.Unit
	var err error
	if spec.Kind == "xmtc" {
		var res *codegen.Result
		res, err = codegen.Compile(spec.Name+".c", spec.Source, codegen.Options{OptLevel: 1, PrefetchSlots: 4})
		if res != nil {
			unit = res.Unit
		}
	} else {
		unit, err = asm.Parse(spec.Name+".s", spec.Source)
	}
	if err != nil {
		return dRef{err: err}
	}
	prog, err := asm.Assemble(unit)
	if err != nil {
		return dRef{err: err}
	}
	var out bytes.Buffer
	sys, err := xmtgo.NewSimulator(prog, cfg, &out)
	if err != nil {
		return dRef{err: err}
	}
	res, err := sys.Run(0)
	if err != nil {
		return dRef{err: err}
	}
	if !res.Halted {
		return dRef{err: fmt.Errorf("did not halt")}
	}
	st := sys.Capture()
	// The fingerprint JobResult.MemHash documents: FNV-1a over shared
	// memory, the global registers (little-endian) and the output.
	h := fnv.New64a()
	h.Write(st.Mem)
	for _, g := range st.G {
		h.Write([]byte{byte(g), byte(g >> 8), byte(g >> 16), byte(g >> 24)})
	}
	io.WriteString(h, out.String())
	sys.Release()
	return dRef{output: out.String(), memHash: fmt.Sprintf("%016x", h.Sum64())}
}

func (x *dInstance) report(p *phase, r *result) {
	lat, ack, lag := summarize(p.lat), summarizeUpTo(x.ack, 990), summarizeUpTo(x.lag, 990)
	r.reportf("job_p50_ms %.4f ms, job_p99_ms %.4f ms at %s (n=%d; due time to Wait returning)",
		lat.p50, summarizeUpTo(p.lat, 990).tail, pctName(summarizeUpTo(p.lat, 990).tailP), lat.n)
	r.layer["ack_p99_ms"] = ack.tail
	r.reportf("ack_p99_ms %.4f ms at %s (n=%d; Submit call to durable acknowledgement)", ack.tail, pctName(ack.tailP), ack.n)
	r.reportf("goodput_jobs_per_s %.3f jobs/s (%d of %d jobs done correctly within %v; offered %.0f jobs/s)",
		float64(p.good)/p.elapsed.Seconds(), p.good, p.attempted, dLatencyLimit, dRate)
	r.reportf("gen.lag_ms_p99 %.4f ms at %s (n=%d; generator lateness, charged to the jobs above)", lag.tail, pctName(lag.tailP), lag.n)
	r.reportf("daemon: %d preemptions, %d retries in the phase", x.info.Preemptions, x.info.Retries)
}

func (x *dInstance) layers(tr *phase, rec *recorder, r *result) error {
	l := r.layer
	ack, wait, lag := summarizeUpTo(x.ack, 990), summarizeUpTo(x.wait, 990), summarizeUpTo(x.lag, 990)
	l["daemon.submit_ms_p50"] = ack.p50
	l["daemon.submit_ms_p99"] = ack.tail
	l["daemon.wait_ms_p50"] = wait.p50
	l["gen.lag_ms_p99"] = lag.tail
	l["daemon.preemptions"] = float64(x.info.Preemptions)
	l["daemon.retries"] = float64(x.info.Retries)
	if st, err := os.Stat(filepath.Join(x.dir, "jobs.journal")); err == nil {
		l["daemon.journal_bytes"] = float64(st.Size())
	}
	ckpts, err := filepath.Glob(filepath.Join(x.dir, "*.ckpt"))
	if err != nil {
		return err
	}
	l["daemon.checkpoint_files"] = float64(len(ckpts))

	stage := map[string][]float64{}
	for _, s := range x.layerSpans {
		i, ok := x.layerIDs[s.Job]
		if !ok || s.Instant {
			continue
		}
		name := s.Name
		if name == "compile" {
			name = "compile_hit"
			if x.layerOuts[i].missedCompile {
				name = "compile_miss"
			}
		}
		stage[name] = append(stage[name], float64(s.DurNs)/1e6)
	}
	// Checkpoint writes are too few per phase for a p99 with ten samples
	// beyond it, so theirs is named _tail; the report gives its percentile.
	for _, st := range []struct{ span, metric, tail string }{
		{"journal-append", "daemon.journal_append_ms", "_p99"},
		{"queued", "daemon.queued_ms", "_p99"},
		{"run", "daemon.run_ms", "_p99"},
		{"checkpoint-write", "daemon.checkpoint_write_ms", "_tail"},
	} {
		d := summarizeUpTo(stage[st.span], 990)
		l[st.metric+"_p50"] = d.p50
		l[st.metric+st.tail] = d.tail
		r.reportf("%s: p50 %.4f ms, %s %.4f ms (n=%d)", st.metric, d.p50, pctName(d.tailP), d.tail, d.n)
	}
	l["daemon.compile_hit_ms_p50"] = summarize(stage["compile_hit"]).p50
	l["daemon.compile_miss_ms_p50"] = summarize(stage["compile_miss"]).p50
	r.reportf("compile spans: %d hits, %d misses", len(stage["compile_hit"]), len(stage["compile_miss"]))
	return nil
}

func (x *dInstance) close() error {
	err := x.d.Close()
	if rerr := os.RemoveAll(x.dir); err == nil {
		err = rerr
	}
	return err
}
