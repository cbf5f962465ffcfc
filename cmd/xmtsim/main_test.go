package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xmtgo/internal/sigctl"
)

// loopAsm prints 7, runs a serial loop of iters iterations and stores and
// prints its count: the first print is the interrupt point of the signal
// tests, and the loop keeps the run going well past it.
func loopAsm(iters int) string {
	return fmt.Sprintf(`
        .data
A:      .space 16
        .text
main:
        li    $v0, 7
        sys   1
        li    $t0, %d
        li    $t2, 0
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        move  $v0, $t2
        sys   1
        sys   0
`, iters)
}

// ckptAsm requests a checkpoint, which stops a cycle-mode run.
const ckptAsm = `
        .text
main:
        li    $v0, 1
        sys   1
        sys   5
        li    $v0, 2
        sys   1
        sys   0
`

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runSim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagNames pins xmtsim's flag set: no flag was added or removed when
// the shared ones moved to internal/runopts.
func TestFlagNames(t *testing.T) {
	fs, _ := newFlags(io.Discard)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"backend", "checkpoint", "config", "config-file", "counters", "counters-json",
		"cpuprofile", "describe", "dump", "fault", "fault-seed", "floorplan", "histogram", "hot",
		"max-cycles", "mem", "memprofile", "mode", "profile", "race-check", "resume", "sample-cycles",
		"samples", "serve", "set", "stats", "thermal", "trace", "trace-op", "trace-tcu", "watchdog", "workers"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags\n%v\nwant\n%v", got, want)
	}
}

// TestConfigPrecedence resolves through every layer — preset, -config-file,
// -set, dedicated flags — and reads the result back from -describe.
func TestConfigPrecedence(t *testing.T) {
	file := writeFile(t, "c.cfg", "seed=5\ndram_latency=11\nhost_workers=3\nfunc_backend=vm\n")
	code, out, stderr := runSim("-config", "chip1024", "-config-file", file,
		"-set", "dram_latency=22", "-set", "host_workers=4", "-set", "sample_cycles=9",
		"-workers", "2", "-fault-seed", "77", "-watchdog", "123", "-race-check", "-backend", "interp",
		"-describe")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"name=chip1024\n",           // preset
		"seed=5\n",                  // file over preset
		"dram: ports=8 latency=22 ", // -set over file
		"host_workers=2 ",           // -workers over -set
		"sample_cycles=9 ",          // -set kept: no -sample-cycles
		"fault_seed=77 fault_plan=\"\" watchdog_cycles=123\n",
		"func_backend=interp ", // -backend over file
		"race_check=true ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-describe lacks %q:\n%s", want, out)
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	prog := writeFile(t, "p.s", ckptAsm)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "-config-file"},
		{[]string{"-no-such-flag", prog}, 2, "flag provided but not defined"},
		{nil, 2, "usage: xmtsim [flags] program.s"},
		{[]string{"-config", "nope", prog}, 1, "xmtsim: "},
		{[]string{filepath.Join(t.TempDir(), "none.s")}, 1, "no such file"},
		{[]string{"-resume", filepath.Join(t.TempDir(), "none.ckpt"), prog}, 1, "no such file"},
		{[]string{"-dump", "nosym", prog}, 1, `unknown data symbol "nosym"`},
		{[]string{"-trace", "cycle", "-trace-op", "bogus", prog}, 1, "xmtsim: "},
		{[]string{"-samples", "s.jsonl", prog}, 1, "-samples needs a sampling interval"},
	} {
		code, _, stderr := runSim(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr:\n%s\nwant exit %d with %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}

// TestFuncModeRejectsCycleFlags: every cycle-only flag, shared or xmtsim's
// own, is refused in functional mode before anything runs.
func TestFuncModeRejectsCycleFlags(t *testing.T) {
	prog := writeFile(t, "p.s", ckptAsm)
	for _, flags := range [][]string{
		{"-counters"}, {"-profile"}, {"-race-check"}, {"-set", "race_check=true"},
		{"-samples", "s.jsonl"}, {"-counters-json", "c.json"}, {"-trace", "t.json"}, {"-serve", "127.0.0.1:0"},
	} {
		args := append(append([]string{"-mode", "func"}, flags...), prog)
		code, out, stderr := runSim(args...)
		if code != 1 || out != "" || !strings.Contains(stderr, "cycle-accurate mode only") {
			t.Errorf("%v: exit %d, stdout %q, stderr:\n%s", flags, code, out, stderr)
		}
	}
}

func TestBackendVMRejectedInCycleMode(t *testing.T) {
	prog := writeFile(t, "p.s", ckptAsm)
	for _, flags := range [][]string{{"-backend", "vm"}, {"-set", "func_backend=vm"}} {
		code, out, stderr := runSim(append(flags, prog)...)
		if code != 1 || out != "" || !strings.Contains(stderr, "xmtsim: -backend vm applies to the functional mode (-mode func)") {
			t.Errorf("%v: exit %d, stdout %q, stderr:\n%s", flags, code, out, stderr)
		}
	}
}

// interruptOnOutput replaces notify for one test: the first-signal handler
// fires, in-process, at the program's first output.
func interruptOnOutput(t *testing.T, out *triggerWriter) {
	notify = func(_ string, onFirst func()) func() {
		out.fire = onFirst
		return func() { out.fire = nil }
	}
	t.Cleanup(func() { notify = sigctl.Notify })
}

// triggerWriter collects output and runs fire once, before the first write.
type triggerWriter struct {
	bytes.Buffer
	fire func()
}

func (w *triggerWriter) Write(p []byte) (int, error) {
	if f := w.fire; f != nil {
		w.fire = nil
		f()
	}
	return w.Buffer.Write(p)
}

// TestInterruptResume interrupts a run at its first output, checks the
// first-signal stop wrote the checkpoint, and resumes it with -resume: the
// two runs' output and final memory must equal one uninterrupted run's.
func TestInterruptResume(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters int
		flags []string
		stop  string
	}{
		{"cycle", 20000, nil, "instructions (checkpoint) ==="},
		{"func-interp", 100000, []string{"-mode", "func"}, "instructions (functional mode, stopped by signal) ==="},
		{"func-vm", 100000, []string{"-mode", "func", "-backend", "vm"}, "instructions (functional mode, vm backend, stopped by signal) ==="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := writeFile(t, "loop.s", loopAsm(tc.iters))
			ckpt := filepath.Join(t.TempDir(), "st.ckpt")
			args := append(slices.Clone(tc.flags), "-dump", "A:1")

			code, want, wantErr := runSim(append(args, prog)...)
			if code != 0 {
				t.Fatalf("uninterrupted run: exit %d: %s", code, wantErr)
			}
			wantDump := wantErr[strings.Index(wantErr, "A @"):]

			var out triggerWriter
			var errb bytes.Buffer
			interruptOnOutput(t, &out)
			if code := run(append(args, "-checkpoint", ckpt, prog), &out, &errb); code != 0 {
				t.Fatalf("interrupted run: exit %d: %s", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stop) || !strings.Contains(errb.String(), "checkpoint written to "+ckpt) {
				t.Fatalf("interrupted run did not stop at a checkpoint:\n%s", errb.String())
			}
			if out.String() == want {
				t.Fatalf("interrupted run ran to completion: %q", want)
			}

			code, rest, stderr := runSim(append(args, "-resume", ckpt, prog)...)
			if code != 0 {
				t.Fatalf("resumed run: exit %d: %s", code, stderr)
			}
			if got := out.String() + rest; got != want {
				t.Fatalf("interrupted+resumed output %q, uninterrupted %q", got, want)
			}
			if !strings.HasSuffix(stderr, wantDump) {
				t.Fatalf("resumed memory dump differs:\n%s\nwant suffix\n%s", stderr, wantDump)
			}
		})
	}
}

// TestCheckpointIntoMissingDir: a checkpoint that cannot be written fails
// the run (exit 1, error on stderr) and leaves no file behind.
func TestCheckpointIntoMissingDir(t *testing.T) {
	prog := writeFile(t, "p.s", ckptAsm)
	for _, mode := range []string{"cycle", "func"} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "missing", "st.ckpt")
		code, _, stderr := runSim("-mode", mode, "-checkpoint", ckpt, prog)
		if code != 1 || !strings.Contains(stderr, "xmtsim: ") || !strings.Contains(stderr, "no such file or directory") {
			t.Errorf("%s: exit %d, stderr:\n%s", mode, code, stderr)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: left %v (%v)", mode, entries, err)
		}
	}
}

// TestReports drives xmtsim's own plug-in and report flags once each.
func TestReports(t *testing.T) {
	prog := writeFile(t, "loop.s", loopAsm(50))
	dir := t.TempDir()
	code, out, stderr := runSim("-hot", "-histogram", "-stats", "-thermal", "-floorplan", "-sample-cycles", "100",
		"-samples", filepath.Join(dir, "s.csv"), "-trace", filepath.Join(dir, "t.json"), prog)
	if code != 0 || out != "750" {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s", code, out, stderr)
	}
	for _, want := range []string{"instructions (halted) ===", "die temperature", "interval samples written to", "chrome trace written to"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	code, _, stderr = runSim("-floorplan", "-mode", "func", "-trace", "func", prog)
	if code != 0 || !strings.Contains(stderr, "sys") {
		t.Fatalf("func trace: exit %d, stderr:\n%s", code, stderr)
	}
	code, _, stderr = runSim("-floorplan", "-trace", "cycle", "-trace-tcu", "-1", "-trace-op", "sys", prog)
	if code != 0 || !strings.Contains(stderr, "per-cluster committed instructions") {
		t.Fatalf("cycle trace: exit %d, stderr:\n%s", code, stderr)
	}
}
