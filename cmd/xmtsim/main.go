// Command xmtsim is the XMT simulator driver: it loads an XMT assembly
// program (plus optional memory-map input files) and simulates it either
// cycle-accurately or in the fast functional mode, with the statistics,
// tracing, plug-in, checkpoint and floorplan facilities of XMTSim.
//
// Usage:
//
//	xmtsim [flags] program.s
//
// Examples:
//
//	xmtsim -config chip1024 -stats prog.s
//	xmtsim -mode func prog.s
//	xmtsim -set clusters=16 -set dram_latency=100 prog.s
//	xmtsim -trace cycle -trace-tcu 0 prog.s
//	xmtsim -hot prog.s
//	xmtsim -checkpoint state.ckpt prog.s           # save at sys checkpoint
//	xmtsim -resume state.ckpt prog.s               # resume from a checkpoint
//	xmtsim -thermal -floorplan prog.s
//	xmtsim -describe -config fpga64
//	xmtsim -workers 4 prog.s                       # host-parallel (results identical)
//	xmtsim -sample-cycles 5000 -samples ts.jsonl prog.s  # interval telemetry
//	xmtsim -serve 127.0.0.1:9090 prog.s            # live /metrics /status /stream
//	xmtsim -cpuprofile cpu.pprof prog.s            # see docs/PERF.md
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"xmtgo/internal/asm"
	"xmtgo/internal/asm/postpass"
	"xmtgo/internal/config"
	"xmtgo/internal/floorplan"
	"xmtgo/internal/runopts"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/power"
	"xmtgo/internal/sim/stats"
	"xmtgo/internal/sim/trace"
)

// notify installs the two-stage SIGINT/SIGTERM handler; tests replace it to
// deliver the first-signal interrupt in-process.
var notify = sigctl.Notify

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flags are xmtsim's own flags, beside the shared run options.
type flags struct {
	*runopts.Options
	hot, histogram, thermal, plan, describe bool
	traceSpec, traceOp, resume, serve       string
	traceTCU                                int
	dumps                                   runopts.List
}

// newFlags registers xmtsim's flags, the shared run options among them, on
// a new flag set that reports to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("xmtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &flags{Options: runopts.Register(fs, runopts.Env{Tool: "xmtsim", Stderr: stderr, Notify: notify})}
	fs.StringVar(&f.File, "config-file", "", "key=value configuration file")
	fs.BoolVar(&f.hot, "hot", false, "enable the hottest-memory-locations filter plug-in")
	fs.BoolVar(&f.histogram, "histogram", false, "enable the opcode-histogram filter plug-in")
	fs.StringVar(&f.traceSpec, "trace", "", "execution trace: func, cycle, or a .json path (Chrome trace for Perfetto)")
	fs.IntVar(&f.traceTCU, "trace-tcu", math.MinInt, "limit trace to one TCU (-1 = master)")
	fs.StringVar(&f.traceOp, "trace-op", "", "limit trace to one mnemonic")
	fs.StringVar(&f.resume, "resume", "", "resume from this checkpoint file")
	fs.BoolVar(&f.thermal, "thermal", false, "attach the power/thermal DVFS manager plug-in")
	fs.BoolVar(&f.plan, "floorplan", false, "render the cluster floorplan at exit (activity or temperature)")
	fs.BoolVar(&f.describe, "describe", false, "print the machine configuration and exit")
	fs.StringVar(&f.serve, "serve", "", "serve live metrics on this address while running (/metrics, /status, /stream)")
	fs.Var(&f.dumps, "dump", "memory dump at exit: symbol or symbol:words (repeatable)")
	return fs, f
}

func run(args []string, stdout, stderr io.Writer) int {
	fs, f := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xmtsim:", err)
		return 1
	}

	cfg, err := f.Resolve()
	if err != nil {
		return fail(err)
	}
	if f.describe {
		fmt.Fprint(stdout, cfg.Describe())
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xmtsim [flags] program.s")
		fs.Usage()
		return 2
	}
	stopProf, err := f.StartProfiles()
	if err != nil {
		return fail(err)
	}
	defer stopProf()
	if err := f.simulate(fs.Arg(0), cfg, stdout, stderr); err != nil {
		return fail(err)
	}
	return 0
}

// simulate loads the assembly program at path and runs it in -mode.
func (f *flags) simulate(path string, cfg config.Config, stdout, stderr io.Writer) error {
	chrome := ""
	if strings.HasSuffix(f.traceSpec, ".json") {
		chrome = f.traceSpec
	}
	err := f.CheckMode(cfg, runopts.CycleOnly{Name: "-trace *.json", Set: chrome != ""},
		runopts.CycleOnly{Name: "-serve", Set: f.serve != ""})
	if err != nil {
		return err
	}

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := asm.Parse(path, string(src))
	if err != nil {
		return err
	}
	if _, err := postpass.Run(u); err != nil {
		return err
	}
	prog, err := asm.Assemble(u)
	if err != nil {
		return err
	}
	if err := f.ApplyMem(prog); err != nil {
		return err
	}
	var resume *checkpoint.State
	if f.resume != "" {
		fh, err := os.Open(f.resume)
		if err != nil {
			return err
		}
		resume, err = checkpoint.Load(fh)
		fh.Close()
		if err != nil {
			return err
		}
	}

	if f.Mode == "func" {
		m, err := funcmodel.New(prog, cfg.MemBytes, stdout)
		if err != nil {
			return err
		}
		if resume != nil {
			if err := checkpoint.Restore(m, resume); err != nil {
				return err
			}
		}
		if f.traceSpec != "" {
			m.Trace = trace.New(stderr, trace.LevelFunctional).FuncHook()
		}
		if err := f.Functional(m, cfg.FuncBackend); err != nil {
			return err
		}
		return dumpMemory(stderr, prog, m.ReadWord, f.dumps)
	}

	sys, err := cycle.New(prog, cfg, stdout)
	if err != nil {
		return err
	}
	if resume != nil {
		if err := sys.RestoreState(resume); err != nil {
			return err
		}
	}
	if f.hot {
		sys.Stats.AddFilter(stats.NewHotLocations(uint32(cfg.CacheLineSize), 10))
	}
	if f.histogram {
		sys.Stats.AddFilter(&stats.OpHistogram{})
	}
	var tm *power.ThermalManager
	if f.thermal {
		if tm, err = power.NewThermalManager(&cfg, 5000, 85); err != nil {
			return err
		}
		sys.AddActivityPlugin(tm)
	}
	if f.traceSpec != "" && chrome == "" {
		lvl := trace.LevelFunctional
		if f.traceSpec == "cycle" {
			lvl = trace.LevelCycle
		}
		tr := trace.New(stderr, lvl)
		if f.traceTCU != math.MinInt {
			tr.LimitTCU(f.traceTCU)
		}
		if f.traceOp != "" {
			if err := tr.LimitOp(f.traceOp); err != nil {
				return err
			}
		}
		sys.SetTrace(tr.CycleHook())
	}
	interval := cfg.SampleCycles
	if f.serve != "" && interval <= 0 {
		interval = 10000 // live serving needs a publish cadence
	}
	// The sampler attaches after RestoreState so resumed runs report
	// absolute cycles, and after the thermal manager so its plug-in event
	// runs later at each boundary and reads the already-advanced grid.
	smp := metrics.Attach(sys, interval)
	if smp != nil && tm != nil {
		smp.AttachThermal(tm)
	}
	if f.serve != "" {
		msrv := metrics.NewServer()
		addr, err := msrv.ListenAndServe(f.serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "serving metrics on http://%s (/metrics /status /stream)\n", addr)
		smp.SetServer(msrv)
		defer msrv.Close()
	}
	if err := f.Cycle(sys, smp, string(src), chrome); err != nil {
		return err
	}
	if err := dumpMemory(stderr, prog, sys.Machine.ReadWord, f.dumps); err != nil {
		return err
	}
	if f.plan {
		renderPlan(stderr, sys, tm, cfg)
	}
	return nil
}

// dumpMemory implements the "memory dump" output of Fig. 3: it prints
// words starting at a data symbol.
func dumpMemory(w io.Writer, prog *asm.Program, read func(uint32) (int32, error), dumps []string) error {
	for _, spec := range dumps {
		name, cntStr, hasCnt := strings.Cut(spec, ":")
		count := 8
		if hasCnt {
			if _, err := fmt.Sscanf(cntStr, "%d", &count); err != nil || count <= 0 {
				return fmt.Errorf("bad -dump count in %q", spec)
			}
		}
		addr, ok := prog.SymAddr(name)
		if !ok {
			return fmt.Errorf("-dump: unknown data symbol %q", name)
		}
		fmt.Fprintf(w, "%s @0x%08x:", name, addr)
		for i := 0; i < count; i++ {
			v, err := read(addr + uint32(4*i))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %d", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func renderPlan(w io.Writer, sys *cycle.System, tm *power.ThermalManager, cfg config.Config) {
	p := floorplan.NewGridPlan(cfg.Clusters)
	if tm != nil {
		p.Render(w, "die temperature (°C)", tm.Grid().T, math.NaN(), math.NaN())
		return
	}
	vals := make([]float64, cfg.Clusters)
	for i := range vals {
		vals[i] = float64(sys.Stats.Cluster[i].TCUInstrs)
	}
	p.Render(w, "per-cluster committed instructions", vals, math.NaN(), math.NaN())
}
