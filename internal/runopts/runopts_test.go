package runopts

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/cycle"
	"xmtgo/internal/sim/funcmodel"
	"xmtgo/internal/sim/metrics"
)

func parse(t *testing.T, args ...string) (*Options, *bytes.Buffer) {
	t.Helper()
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := Register(fs, Env{Tool: "t", Stderr: &stderr, Notify: func(string, func()) func() { return func() {} }})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, &stderr
}

// TestResolveOrder pins the precedence: preset, then the config file, then
// each -set in order, then the dedicated flags.
func TestResolveOrder(t *testing.T) {
	file := filepath.Join(t.TempDir(), "c.cfg")
	src := "# file layer\nseed=5\ndram_latency=11\nhost_workers=3\nsample_cycles=7\nfunc_backend=vm\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	o, _ := parse(t, "-config", "chip1024",
		"-set", "dram_latency=22", "-set", "dram_latency=23", "-set", "host_workers=4",
		"-workers", "2", "-sample-cycles", "100", "-fault", "memflip:1", "-fault-seed", "77",
		"-watchdog", "0", "-race-check", "-backend", "interp")
	o.File = file
	cfg, err := o.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := config.Config{Name: "chip1024", Clusters: 64, Seed: 5, DRAMLatency: 23, HostWorkers: 2,
		SampleCycles: 100, FaultPlan: "memflip:1", FaultSeed: 77, WatchdogCycles: 0, RaceCheck: true,
		FuncBackend: config.FuncBackendInterp}
	got := config.Config{Name: cfg.Name, Clusters: cfg.Clusters, Seed: cfg.Seed, DRAMLatency: cfg.DRAMLatency,
		HostWorkers: cfg.HostWorkers, SampleCycles: cfg.SampleCycles, FaultPlan: cfg.FaultPlan,
		FaultSeed: cfg.FaultSeed, WatchdogCycles: cfg.WatchdogCycles, RaceCheck: cfg.RaceCheck,
		FuncBackend: cfg.FuncBackend}
	if got != want {
		t.Fatalf("resolved\n%+v\nwant\n%+v", got, want)
	}

	// Unset dedicated flags keep what the earlier layers chose.
	o, _ = parse(t, "-set", "watchdog_cycles=9", "-set", "sample_cycles=8", "-set", "fault_seed=6")
	o.File = file
	if cfg, err = o.Resolve(); err != nil {
		t.Fatal(err)
	}
	if cfg.WatchdogCycles != 9 || cfg.SampleCycles != 8 || cfg.FaultSeed != 6 || cfg.HostWorkers != 3 || cfg.FuncBackend != config.FuncBackendVM {
		t.Fatalf("keep values overrode earlier layers: %+v", cfg)
	}
}

func TestResolveErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.cfg")
	if err := os.WriteFile(bad, []byte("nope=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    Config
		want string
	}{
		{"preset", Config{Preset: "nope"}, "nope"},
		{"missing file", Config{Preset: "fpga64", File: filepath.Join(t.TempDir(), "none")}, "no such file"},
		{"bad file", Config{Preset: "fpga64", File: bad}, "line 1"},
		{"bad set", Config{Preset: "fpga64", Sets: List{"clusters"}}, "key=value"},
		{"bad backend", Config{Preset: "fpga64", Backend: "jit"}, "func_backend"},
	} {
		if _, err := tc.c.Resolve(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestConfigFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := ConfigFlags(fs, "override")
	if err := fs.Parse([]string{"-config", "chip1024", "-set", "seed=3", "-set", "clusters=2"}); err != nil {
		t.Fatal(err)
	}
	if got := fs.Lookup("set").Value.String(); got != "seed=3,clusters=2" {
		t.Fatalf("-set value %q", got)
	}
	cfg, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "chip1024" || cfg.Seed != 3 || cfg.Clusters != 2 || cfg.WatchdogCycles != 2000000 {
		t.Fatalf("resolved %+v", cfg)
	}
}

func TestCheckMode(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		extra []CycleOnly
		want  string // "" = accepted
	}{
		{[]string{"-mode", "cycle", "-counters", "-profile"}, nil, ""},
		{[]string{"-mode", "func"}, nil, ""},
		{[]string{"-mode", "cycle", "-backend", "vm"}, nil, "-backend vm applies to the functional mode"},
		{[]string{"-mode", "cycle", "-set", "func_backend=vm"}, nil, "-backend vm applies to the functional mode"},
		{[]string{"-mode", "fast"}, nil, `-mode "fast": want cycle or func`},
		{[]string{"-mode", "func", "-counters"}, nil, "-counters: cycle-accurate mode only"},
		{[]string{"-mode", "func", "-profile"}, nil, "-profile: cycle-accurate mode only"},
		{[]string{"-mode", "func", "-race-check"}, nil, "-race-check: cycle-accurate mode only"},
		{[]string{"-mode", "func", "-set", "race_check=true"}, nil, "-race-check: cycle-accurate mode only"},
		{[]string{"-mode", "func", "-samples", "s.jsonl"}, nil, "-samples: cycle-accurate mode only"},
		{[]string{"-mode", "func", "-counters-json", "c.json"}, nil, "-counters-json: cycle-accurate mode only"},
		{[]string{"-mode", "func", "-counters"}, []CycleOnly{{"-serve", true}, {"-dump", false}}, "-serve, -counters: cycle-accurate mode only"},
	} {
		o, _ := parse(t, tc.args...)
		cfg, err := o.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		err = o.CheckMode(cfg, tc.extra...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// progAsm requests a checkpoint, then runs a 70000-iteration serial loop
// and prints its count.
const progAsm = `
        .data
A:      .space 16
        .text
main:
        li    $t0, 70000
        li    $t2, 0
        sys   5
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        move  $v0, $t2
        sys   1
        sys   0
`

func assemble(t *testing.T) *asm.Program {
	t.Helper()
	u, err := asm.Parse("p.s", progAsm)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func loadCheckpoint(t *testing.T, path string) *checkpoint.State {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := checkpoint.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFunctional runs both backends through the shared loop: the program's
// checkpoint request is saved right after the requesting instruction, and
// the first signal stops the run at a later boundary with a second save.
func TestFunctional(t *testing.T) {
	prog := assemble(t)
	for _, backend := range []string{config.FuncBackendInterp, config.FuncBackendVM} {
		t.Run(backend, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "f.ckpt")
			o, stderr := parse(t, "-mode", "func", "-checkpoint", ckpt)

			var out bytes.Buffer
			m, err := funcmodel.New(prog, 1<<20, &out)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Functional(m, backend); err != nil {
				t.Fatal(err)
			}
			if out.String() != "70000" || !m.Halted {
				t.Fatalf("output %q halted=%v", out.String(), m.Halted)
			}
			// li of 70000 is two instructions, so sys 5 is the fourth.
			if st := loadCheckpoint(t, ckpt); st.InstrCount != 4 {
				t.Fatalf("program checkpoint at instruction %d, want 4", st.InstrCount)
			}
			if !strings.Contains(stderr.String(), "checkpoint written to "+ckpt+" (instruction 4;") {
				t.Fatalf("stderr:\n%s", stderr)
			}

			// Interrupt before the run starts: the loop stops at its first
			// chunk boundary and saves there.
			o.env.Notify = func(_ string, f func()) func() { f(); return func() {} }
			stderr.Reset()
			m, err = funcmodel.New(prog, 1<<20, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Functional(m, backend); err != nil {
				t.Fatal(err)
			}
			if m.Halted || !strings.Contains(stderr.String(), "stopped by signal) ===") {
				t.Fatalf("halted=%v stderr:\n%s", m.Halted, stderr)
			}
			if st := loadCheckpoint(t, ckpt); st.InstrCount != m.InstrCount || st.InstrCount < 1<<16 {
				t.Fatalf("signal checkpoint at instruction %d, machine at %d", st.InstrCount, m.InstrCount)
			}
		})
	}
}

// TestCycleEpilogue runs the cycle epilogue with every shared report on and
// checks each artifact and the report order.
func TestCycleEpilogue(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	o, stderr := parse(t, "-checkpoint", path("c.ckpt"), "-stats", "-counters", "-profile",
		"-race-check", "-counters-json", path("c.json"), "-samples", path("s.jsonl"))
	cfg, err := o.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	prog := assemble(t)
	sys, err := cycle.New(prog, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Cycle(sys, nil, progAsm, path("t.json")); err == nil {
		t.Fatal("-samples without an interval accepted")
	}
	if err := o.Cycle(sys, metrics.Attach(sys, 100), progAsm, path("t.json")); err != nil {
		t.Fatal(err)
	}
	loadCheckpoint(t, path("c.ckpt"))
	for _, f := range []string{"c.json", "s.jsonl", "t.json"} {
		if fi, err := os.Stat(path(f)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", f, err)
		}
	}
	text := stderr.String()
	last := -1
	for _, marker := range []string{"instructions (checkpoint) ===", "checkpoint written to", "xmtsan:",
		"interval samples written to", "chrome trace written to"} {
		i := strings.Index(text, marker)
		if i < 0 || i < last {
			t.Fatalf("%q missing or out of order in:\n%s", marker, text)
		}
		last = i
	}
}

func TestEndState(t *testing.T) {
	for want, res := range map[string]cycle.Result{
		"halted":                 {Halted: true},
		"checkpoint":             {Checkpoint: true},
		"cycle budget exhausted": {TimedOut: true},
		"stopped":                {},
	} {
		if got := endState(&res); got != want {
			t.Errorf("endState(%+v) = %q, want %q", res, got, want)
		}
	}
}
