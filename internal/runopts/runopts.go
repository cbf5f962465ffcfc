// Package runopts is the run layer of the simulation CLIs. xmtsim and xmtrun
// share three parts of it:
//
//   - the flags both take, and the machine configuration those resolve to;
//   - the functional-mode run loop (interp or vm backend, program checkpoint
//     requests, the first-signal stop);
//   - the cycle-mode run and its epilogue (end banner, checkpoint, xmtsan
//     report, statistics, counters, samples, profile, Chrome trace).
//
// It works on objects the caller has already built — a *funcmodel.Machine,
// or a *cycle.System with the caller's own plug-ins attached — so each CLI
// keeps only its own input handling. xmtd and xmtbatch use the
// configuration part alone.
package runopts

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"xmtgo/internal/asm"
	"xmtgo/internal/atomicfile"
	"xmtgo/internal/config"
	"xmtgo/internal/prof"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/funcvm"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// List is a repeatable string flag.
type List []string

func (l *List) String() string     { return strings.Join(*l, ",") }
func (l *List) Set(v string) error { *l = append(*l, v); return nil }

// Config is the machine-configuration flag group. The dedicated override
// fields start at values that keep the preset's setting, so a CLI binds only
// the dedicated flags it has.
type Config struct {
	Preset string // -config
	File   string // key=value configuration file (xmtsim -config-file)
	Sets   List   // -set key=value, applied in order

	Workers      int    // -workers; 0 keeps host_workers
	Fault        string // -fault; "" keeps fault_plan
	FaultSeed    uint64 // -fault-seed; 0 keeps fault_seed
	Watchdog     int64  // -watchdog; -1 keeps watchdog_cycles
	SampleCycles int64  // -sample-cycles; -1 keeps sample_cycles
	RaceCheck    bool   // -race-check; false keeps race_check
	Backend      string // -backend; "" keeps func_backend
}

// ConfigFlags registers -config and -set (with setUsage as its help) on fs
// and returns the group they fill.
func ConfigFlags(fs *flag.FlagSet, setUsage string) *Config {
	c := &Config{Watchdog: -1, SampleCycles: -1}
	fs.StringVar(&c.Preset, "config", "fpga64", "machine preset: fpga64 or chip1024")
	fs.Var(&c.Sets, "set", setUsage)
	return c
}

// Resolve builds the configuration: the preset, then File, then each -set
// in order, then the dedicated flags.
func (c *Config) Resolve() (config.Config, error) {
	cfg, err := config.Preset(c.Preset)
	if err != nil {
		return cfg, err
	}
	if c.File != "" {
		src, err := os.ReadFile(c.File)
		if err != nil {
			return cfg, err
		}
		if err := cfg.Load(string(src)); err != nil {
			return cfg, err
		}
	}
	for _, kv := range c.Sets {
		if err := cfg.Set(kv); err != nil {
			return cfg, err
		}
	}
	if c.Workers != 0 {
		cfg.HostWorkers = c.Workers
	}
	if c.Fault != "" {
		cfg.FaultPlan = c.Fault
	}
	if c.FaultSeed != 0 {
		cfg.FaultSeed = c.FaultSeed
	}
	if c.Watchdog >= 0 {
		cfg.WatchdogCycles = c.Watchdog
	}
	if c.SampleCycles >= 0 {
		cfg.SampleCycles = c.SampleCycles
	}
	if c.RaceCheck {
		cfg.RaceCheck = true
	}
	if c.Backend != "" {
		if err := cfg.Set("func_backend=" + c.Backend); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Env is the caller's side of a run.
type Env struct {
	Tool   string    // prefix of messages, e.g. "xmtsim"
	Stderr io.Writer // reports and banners
	// Notify installs the two-stage SIGINT/SIGTERM handler (sigctl.Notify;
	// tests substitute one that interrupts in-process).
	Notify func(tool string, onFirst func()) (stop func())
}

// Options are the flags xmtsim and xmtrun share.
type Options struct {
	*Config
	Mem          List   // -mem memory-map files
	Mode         string // -mode: cycle or func
	MaxCycles    int64
	Stats        bool
	Counters     bool
	Profile      bool
	Checkpoint   string // where a run that stops at a checkpoint boundary saves it
	Samples      string
	CountersJSON string
	CPUProfile   string
	MemProfile   string

	env Env
}

// Register registers the shared flags on fs; runs started from the returned
// Options report through env.
func Register(fs *flag.FlagSet, env Env) *Options {
	o := &Options{Config: ConfigFlags(fs, "override one configuration key=value (repeatable)"), env: env}
	fs.Var(&o.Mem, "mem", "memory-map input file (repeatable)")
	fs.StringVar(&o.Mode, "mode", "cycle", "simulation mode: cycle or func")
	fs.StringVar(&o.Backend, "backend", "", "functional-mode backend: interp or vm (default: config func_backend, else interp)")
	fs.Int64Var(&o.MaxCycles, "max-cycles", 0, "stop after this many cycles (0 = unlimited)")
	fs.BoolVar(&o.Stats, "stats", false, "print instruction and activity counters")
	fs.BoolVar(&o.Counters, "counters", false, "print the hardware performance counter report")
	fs.BoolVar(&o.Profile, "profile", false, "print the cycle profile (flat by source line + cumulative by function)")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "write a checkpoint here when the run stops at a checkpoint boundary: a program checkpoint request, or the first SIGINT/SIGTERM (resume with xmtsim -resume)")
	fs.IntVar(&o.Workers, "workers", 0, "host worker goroutines for the cluster shards: 0 = serial (1 worker); N>1 = N parallel workers, results identical")
	fs.StringVar(&o.Fault, "fault", "", `fault-injection plan, e.g. "memflip:10;tcufail:2@5000-90000" (docs/ROBUSTNESS.md)`)
	fs.Uint64Var(&o.FaultSeed, "fault-seed", 0, "fault plan seed (0 = keep the preset's fault_seed)")
	fs.Int64Var(&o.Watchdog, "watchdog", -1, "no-progress watchdog window in cluster cycles (0 disables; -1 = keep the preset's watchdog_cycles)")
	fs.BoolVar(&o.RaceCheck, "race-check", false, "enable xmtsan, the deterministic dynamic race sanitizer (cycle mode; report on stderr)")
	fs.Int64Var(&o.SampleCycles, "sample-cycles", -1, "interval-sampler period in cluster cycles (0 disables; -1 = keep the preset's sample_cycles)")
	fs.StringVar(&o.Samples, "samples", "", "write the interval-sample time series here (.jsonl or .csv; needs a sampling interval)")
	fs.StringVar(&o.CountersJSON, "counters-json", "", "write the machine-readable counter snapshot (xmt-counters/v1 JSON) to this file")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return o
}

// CycleOnly is a flag that needs the cycle-accurate mode, and whether it
// is set.
type CycleOnly struct {
	Name string
	Set  bool
}

// CheckMode rejects flags that do not apply to -mode; own are the caller's
// own cycle-only flags.
func (o *Options) CheckMode(cfg config.Config, own ...CycleOnly) error {
	switch o.Mode {
	case "cycle":
		if cfg.FuncBackend == config.FuncBackendVM {
			return errors.New("-backend vm applies to the functional mode (-mode func)")
		}
		return nil
	case "func":
	default:
		return fmt.Errorf("-mode %q: want cycle or func", o.Mode)
	}
	var set []string
	for _, f := range append(own, CycleOnly{"-counters", o.Counters}, CycleOnly{"-profile", o.Profile},
		CycleOnly{"-race-check", cfg.RaceCheck}, CycleOnly{"-samples", o.Samples != ""},
		CycleOnly{"-counters-json", o.CountersJSON != ""}) {
		if f.Set {
			set = append(set, f.Name)
		}
	}
	if len(set) > 0 {
		return fmt.Errorf("%s: cycle-accurate mode only (-mode cycle)", strings.Join(set, ", "))
	}
	return nil
}

// StartProfiles starts the -cpuprofile and -memprofile host profiles. The
// returned stop writes them, reporting a failure on stderr.
func (o *Options) StartProfiles() (stop func(), err error) {
	stopProf, err := prof.Start(o.CPUProfile, o.MemProfile)
	if err != nil {
		return nil, err
	}
	return func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(o.env.Stderr, "%s: profile: %v\n", o.env.Tool, err)
		}
	}, nil
}

// ApplyMem loads the -mem memory-map files into prog.
func (o *Options) ApplyMem(prog *asm.Program) error {
	for _, mm := range o.Mem {
		data, err := os.ReadFile(mm)
		if err != nil {
			return err
		}
		if err := asm.ApplyMemMap(prog, mm, string(data)); err != nil {
			return err
		}
	}
	return nil
}

// saveCheckpoint writes st to -checkpoint atomically; at says where the run
// stopped.
func (o *Options) saveCheckpoint(st *checkpoint.State, at string) error {
	err := atomicfile.WriteFunc(o.Checkpoint, 0o644, func(w io.Writer) error {
		return checkpoint.Save(w, st)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.env.Stderr, "checkpoint written to %s (%s; resume with xmtsim -resume)\n", o.Checkpoint, at)
	return nil
}

// Functional runs m on the named functional backend until it halts. A
// program checkpoint request writes -checkpoint when it is set. The first
// SIGINT/SIGTERM only raises a flag: the run stops at the next quiescent
// instruction boundary, writes -checkpoint when it is set, and returns
// normally. The end banner goes to stderr.
func (o *Options) Functional(m *funcmodel.Machine, backend string) error {
	save := func(m *funcmodel.Machine) error {
		if o.Checkpoint == "" {
			return nil
		}
		return o.saveCheckpoint(checkpoint.Capture(m, int64(m.InstrCount)), fmt.Sprintf("instruction %d", m.InstrCount))
	}
	var interrupted atomic.Bool
	stopSig := o.env.Notify(o.env.Tool, func() { interrupted.Store(true) })
	defer stopSig()

	mode, runTo := "functional mode", stepTo(m, save)
	if backend == config.FuncBackendVM {
		vm, err := funcvm.Attach(m)
		if err != nil {
			return err
		}
		vm.OnCheckpoint = save
		mode, runTo = "functional mode, vm backend", vm.RunTo
	}
	// Run in bounded chunks so the interrupt flag is observed promptly
	// without a per-instruction check in either backend's loop.
	const chunk = 1 << 16
	for !m.Halted {
		if err := runTo(m.InstrCount + chunk); err != nil {
			return err
		}
		if interrupted.Load() && !m.Halted {
			if err := save(m); err != nil {
				return err
			}
			mode += ", stopped by signal"
			break
		}
	}
	fmt.Fprintf(o.env.Stderr, "\n=== %d instructions (%s) ===\n", m.InstrCount, mode)
	return nil
}

// stepTo is the interpreter's Machine.RunTo that also hands each program
// checkpoint request to save right after the requesting instruction, the
// point funcvm's OnCheckpoint fires at.
func stepTo(m *funcmodel.Machine, save func(*funcmodel.Machine) error) func(uint64) error {
	return func(target uint64) error {
		for !m.Halted && (m.InstrCount < target || !m.Quiescent()) {
			ok, err := m.Step()
			if err != nil {
				return err
			}
			if m.CheckpointRequested {
				m.CheckpointRequested = false
				if err := save(m); err != nil {
					return err
				}
			}
			if !ok {
				break
			}
		}
		return nil
	}
}

// Cycle runs sys, which the caller has built with its own plug-ins and
// the interval sampler smp (nil without a sampling interval) attached,
// until it halts, exhausts -max-cycles, or stops at a checkpoint boundary:
// a program request, or the first SIGINT/SIGTERM. It attaches the -profile
// line profile, annotated with the program source src, and a Chrome event
// log when chrome names a file. The epilogue goes to stderr: the end
// banner, the -checkpoint save, the -stats report, the xmtsan report,
// -counters, -counters-json, -samples, -profile and the Chrome trace.
func (o *Options) Cycle(sys *cycle.System, smp *metrics.Sampler, src, chrome string) error {
	if o.Samples != "" && smp == nil {
		return errors.New("-samples needs a sampling interval (-sample-cycles or sample_cycles)")
	}
	if chrome != "" {
		sys.SetEventLog(trace.NewEventLog())
	}
	var profile *stats.LineProfile
	if o.Profile {
		profile = stats.NewLineProfile(sys.Machine.Prog, sys.Cfg.Clusters+1)
		profile.SetSource(src)
		sys.AttachProfile(profile)
	}
	stderr := o.env.Stderr
	stopSig := o.env.Notify(o.env.Tool, sys.RequestCheckpoint)
	defer stopSig()
	res, err := sys.Run(o.MaxCycles)
	if err != nil {
		return err
	}
	if smp != nil {
		smp.Finalize(res.Cycles, int64(res.Ticks), sys.Stats, sys.AliveTCUs())
	}
	fmt.Fprintf(stderr, "\n=== %d cycles, %d instructions (%s) ===\n", res.Cycles, res.Instrs, endState(res))
	if res.Checkpoint && o.Checkpoint != "" {
		if err := o.saveCheckpoint(sys.Capture(), fmt.Sprintf("cycle %d", res.Cycles)); err != nil {
			return err
		}
	}
	if o.Stats {
		sys.Stats.Report(stderr)
	}
	if det := sys.RaceDetector(); det != nil {
		if err := det.WriteReport(stderr); err != nil {
			return err
		}
	}
	if o.Counters {
		sys.Stats.ReportCounters(stderr)
	}
	if o.CountersJSON != "" {
		if err := metrics.ExportCounters(o.CountersJSON, sys.Stats, res.Cycles, int64(res.Ticks)); err != nil {
			return err
		}
	}
	if o.Samples != "" {
		if err := metrics.ExportSamples(o.Samples, smp); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "interval samples written to %s (%d samples)\n", o.Samples, len(smp.Samples()))
	}
	if profile != nil {
		profile.Report(stderr, 30)
	}
	if chrome != "" {
		err := atomicfile.WriteFunc(chrome, 0o644, func(w io.Writer) error {
			return sys.EventLog().WriteChrome(w, sys.ChromeMeta())
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "chrome trace written to %s (%d events; load in Perfetto or chrome://tracing)\n",
			chrome, len(sys.EventLog().Events))
	}
	return nil
}

func endState(res *cycle.Result) string {
	switch {
	case res.Halted:
		return "halted"
	case res.Checkpoint:
		return "checkpoint"
	case res.TimedOut:
		return "cycle budget exhausted"
	}
	return "stopped"
}
