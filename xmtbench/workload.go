package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"xmtgo/internal/obs"
)

// workload is one named benchmark workload.
type workload struct {
	why string
	// setup generates the inputs from the seed and prepares everything the
	// measured phase needs. It is timed and repeated (setupBatches).
	setup func(o *options) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// warm runs one untimed op so lazy initialisation (memory pools,
	// caches of the Go runtime) is done before timing starts.
	warm() error
	// measure runs whole rounds of ops for at least d. rec is nil in an
	// untraced phase; in a traced phase the instance records a span around
	// every layer call it makes.
	measure(d time.Duration, rec *recorder) (*phase, error)
	// report adds the workload's own named metrics of an untraced phase to
	// the report.
	report(p *phase, r *result)
	// layers fills the per-layer metrics from a traced phase.
	layers(tr *phase, rec *recorder, r *result) error
	// describe adds the instance's part of the host class.
	describe(host map[string]any)
	close() error
}

// phase holds one measured phase's raw samples.
type phase struct {
	elapsed   time.Duration
	lat       []float64 // per-op latency, ms
	good      int       // ops that count towards ops_per_s
	attempted int
	failed    int
	instrs    float64    // simulated instructions
	simSec    float64    // host seconds spent inside simulator calls
	gcs       uint32     // garbage collections during the phase
	cpuSec    float64    // process CPU time (user + system) during the phase
	spans     []obs.Span // program-side spans, already on the recorder's clock
}

var benchWorkloads = map[string]workload{
	"sim-compute": {
		why:   "cycle-accurate Table I parallel-compute run on the 1024-TCU chip: TCU issue and cluster compute dominate",
		setup: setupSimCompute,
	},
	"sim-memory": {
		why:   "Table I parallel-memory plus a parallel BFS on the same chip: scheduler, ICN, caches and DRAM dominate",
		setup: setupSimMemory,
	},
	"toolchain": {
		why:   "every generator and runnable example from XMTC source to a checked functional-mode result",
		setup: setupToolchain,
	},
	"daemon-open": {
		why:   "open-loop job arrivals into an in-process xmtd: journal fsync, queue, compile cache, checkpoints, preemption",
		setup: setupDaemon,
	},
}

func workloadNames() []string {
	var names []string
	for n := range benchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A run times set-up in setupBatches batches. Each batch repeats the
// set-up until the set-ups alone have taken setupBatchTime of process CPU
// time, and yields their mean; setup_s is the median of the batch means.
// Set-up is timed in CPU time, as ops are (cpu_ms_per_op): on a shared
// host the wall time of the same set-up moves with other tenants' load by
// more than the bound. Many set-ups take a few milliseconds, too short to
// time one alone above the noise of the scheduler and the garbage
// collector.
const (
	setupBatches   = 7
	setupBatchTime = 100 * time.Millisecond
)

// runWorkload times the workload's set-up, measures one untraced phase
// and, with tracing, one traced phase of the same length.
func runWorkload(w workload, o *options) (res *result, err error) {
	res = newResult()
	var inst instance
	defer func() {
		if inst != nil {
			err = errors.Join(err, inst.close())
		}
	}()
	setups := make([]float64, 0, setupBatches)
	nSetups := 0
	for b := 0; b < setupBatches; b++ {
		var sum time.Duration
		k := 0
		for ; sum < setupBatchTime; k++ {
			// Closing the previous instance is not part of set-up.
			if inst != nil {
				if err := inst.close(); err != nil {
					return nil, err
				}
				inst = nil
			}
			c0, err := cpuSeconds()
			if err != nil {
				return nil, err
			}
			in, err := w.setup(o)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			c1, err := cpuSeconds()
			if err != nil {
				return nil, err
			}
			sum += time.Duration((c1 - c0) * float64(time.Second))
			inst = in
		}
		setups = append(setups, sum.Seconds()/float64(k))
		nSetups += k
	}
	inst.describe(res.host)
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	un, err := measure(inst, o.phase, nil)
	if err != nil {
		return nil, err
	}
	res.attempted += un.attempted
	res.failed += un.failed
	d := summarize(un.lat)
	res.e2e["setup_s"] = median(setups)
	if d.n > 0 {
		res.e2e["cpu_ms_per_op"] = un.cpuSec * 1e3 / float64(d.n)
	}
	// The untraced phase's wall-clock figures (throughput, latencies,
	// simulator speed) and memory are reported with the per-layer metrics,
	// without a bound: on a shared host they move with other tenants' disk
	// and CPU use more than any bound could hold (README.md).
	l := res.layer
	l["ops_per_s"] = float64(un.good) / un.elapsed.Seconds()
	l["op_p50_ms"] = d.p50
	l["op_tail_ms"] = d.tail
	if un.simSec > 0 {
		l["sim_instr_per_s"] = un.instrs / un.simSec
	}
	l["peak_rss_mb"] = peakRSSMiB()
	res.reportf("workload %s seed %d phase %v: %s", o.workload, o.seed, o.phase, w.why)
	res.reportf("setup_s %.6f s of CPU time (median of %d batch means over %d set-ups)", res.e2e["setup_s"], len(setups), nSetups)
	res.reportf("ops_per_s %.3f ops/s (%d good of %d attempted, %d failed, over %.3f s)",
		l["ops_per_s"], un.good, un.attempted, un.failed, un.elapsed.Seconds())
	res.reportf("cpu_ms_per_op %.4f ms (%.3f s of process CPU time over %d correct ops)",
		res.e2e["cpu_ms_per_op"], un.cpuSec, d.n)
	res.reportf("op_p50_ms %.4f ms, op_tail_ms %.4f ms at %s (n=%d)", d.p50, d.tail, pctName(d.tailP), d.n)
	res.reportf("sim_instr_per_s %.0f instr/s (%.0f instr in %.3f s of simulator calls)",
		l["sim_instr_per_s"], un.instrs, un.simSec)
	res.reportf("peak_rss_mb %.1f MiB", l["peak_rss_mb"])
	inst.report(un, res)

	if o.trace {
		rec := newRecorder()
		tr, err := measure(inst, o.phase, rec)
		if err != nil {
			return nil, err
		}
		res.attempted += tr.attempted
		res.failed += tr.failed
		if err := inst.layers(tr, rec, res); err != nil {
			return nil, err
		}
		if t := summarize(tr.lat); t.n > 0 && d.n > 0 {
			res.layer["trace.overhead_pct"] = (t.p50/d.p50 - 1) * 100
		}
		path := o.prefix + ".trace.json"
		if err := rec.writeChrome(path, o.workload, tr.spans); err != nil {
			return nil, err
		}
		res.reportf("trace.overhead_pct %.2f %% (traced op p50 vs untraced); chrome trace %s",
			res.layer["trace.overhead_pct"], path)
	}
	return res, nil
}

// measure runs one phase and counts the garbage collections and the
// process CPU time spent during it.
func measure(inst instance, d time.Duration, rec *recorder) (*phase, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcs := ms.NumGC
	cpu, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph, err := inst.measure(d, rec)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	ph.gcs = ms.NumGC - gcs
	cpuEnd, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph.cpuSec = cpuEnd - cpu
	return ph, nil
}
