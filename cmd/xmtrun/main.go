// Command xmtrun compiles and immediately simulates an XMTC program — the
// one-step workflow students and algorithm developers use ("install the
// toolchain on any personal computer and work on assignments", paper §I).
//
// Usage:
//
//	xmtrun [flags] program.c
//
// Examples:
//
//	xmtrun prog.c                          # cycle-accurate on fpga64
//	xmtrun -config chip1024 -stats prog.c
//	xmtrun -mode func prog.c               # fast functional debugging mode
//	xmtrun -mem input.map prog.c
//	xmtrun -profile prog.c                 # cycles per XMTC source line
//	xmtrun -counters prog.c                # hardware performance counters
//	xmtrun -trace out.json prog.c          # Chrome trace for Perfetto
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/runopts"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/stats"
)

// notify installs the two-stage SIGINT/SIGTERM handler; tests replace it to
// deliver the first-signal interrupt in-process.
var notify = sigctl.Notify

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flags are xmtrun's own flags, beside the shared run options.
type flags struct {
	*runopts.Options
	chrome string // -trace: Chrome trace path
	copts  codegen.Options
}

// newFlags registers xmtrun's flags, the shared run options among them, on
// a new flag set that reports to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("xmtrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &flags{
		Options: runopts.Register(fs, runopts.Env{Tool: "xmtrun", Stderr: stderr, Notify: notify}),
		copts:   codegen.Options{PrefetchSlots: 4},
	}
	fs.StringVar(&f.chrome, "trace", "", "write a Chrome trace (Perfetto) to this .json file")
	fs.IntVar(&f.copts.OptLevel, "O", 1, "optimization level")
	fs.IntVar(&f.copts.ClusterFactor, "cluster", 0, "virtual-thread clustering factor")
	fs.BoolVar(&f.copts.NoPrefetch, "no-prefetch", false, "disable compiler prefetching")
	fs.BoolVar(&f.copts.NoNBStore, "no-nbstore", false, "disable non-blocking stores")
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
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xmtrun [flags] program.c")
		fs.Usage()
		return 2
	}
	if err := f.compileAndRun(fs.Arg(0), stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "xmtrun:", err)
		return 1
	}
	return 0
}

// compileAndRun compiles the XMTC program at path and runs it in -mode.
func (f *flags) compileAndRun(path string, stdout, stderr io.Writer) error {
	cfg, err := f.Resolve()
	if err != nil {
		return err
	}
	if err := f.CheckMode(cfg, runopts.CycleOnly{Name: "-trace", Set: f.chrome != ""}); err != nil {
		return err
	}
	stopProf, err := f.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProf()

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := codegen.Compile(path, string(src), f.copts)
	if err != nil {
		return err
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(stderr, w)
	}
	prog, err := asm.Assemble(res.Unit)
	if err != nil {
		return err
	}
	if err := f.ApplyMem(prog); err != nil {
		return err
	}

	if f.Mode == "func" {
		m, err := funcmodel.New(prog, cfg.MemBytes, stdout)
		if err != nil {
			return err
		}
		return f.Functional(m, cfg.FuncBackend)
	}
	sys, err := cycle.New(prog, cfg, stdout)
	if err != nil {
		return err
	}
	if f.Stats {
		sys.Stats.AddFilter(&stats.OpHistogram{})
	}
	// Instruction line numbers point into the XMTC source for compiled
	// programs, so the -profile flat report annotates XMTC lines directly.
	return f.Cycle(sys, metrics.Attach(sys, cfg.SampleCycles), string(src), f.chrome)
}
