package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xmtgo"
	"xmtgo/internal/sigctl"
)

// ckptC requests a checkpoint between two prints.
const ckptC = `
int v = 1;
int main() {
    v = v + 41;
    print_int(v);
    checkpoint();
    print_int(v + 1);
    return 0;
}
`

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runRun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func loadCheckpoint(t *testing.T, path string) *xmtgo.Checkpoint {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := xmtgo.LoadCheckpoint(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return st
}

// TestFlagNames pins xmtrun's flag set: no flag was added or removed when
// the shared ones moved to internal/runopts.
func TestFlagNames(t *testing.T) {
	fs, _ := newFlags(io.Discard)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"O", "backend", "checkpoint", "cluster", "config", "counters", "counters-json",
		"cpuprofile", "fault", "fault-seed", "max-cycles", "mem", "memprofile", "mode", "no-nbstore",
		"no-prefetch", "profile", "race-check", "sample-cycles", "samples", "set", "stats", "trace",
		"watchdog", "workers"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags\n%v\nwant\n%v", got, want)
	}
}

// TestFunctionalProgramCheckpoint: a program's checkpoint() request writes
// -checkpoint in functional mode under both backends, as in cycle mode.
func TestFunctionalProgramCheckpoint(t *testing.T) {
	prog := writeFile(t, "c.c", ckptC)
	for _, backend := range []string{"interp", "vm"} {
		ckpt := filepath.Join(t.TempDir(), "f.ckpt")
		code, out, stderr := runRun("-mode", "func", "-backend", backend, "-checkpoint", ckpt, prog)
		if code != 0 || out != "4243" {
			t.Fatalf("%s: exit %d, stdout %q, stderr:\n%s", backend, code, out, stderr)
		}
		if !strings.Contains(stderr, "checkpoint written to "+ckpt+" (instruction ") {
			t.Fatalf("%s: no checkpoint line:\n%s", backend, stderr)
		}
		if st := loadCheckpoint(t, ckpt); st.Halted || st.InstrCount == 0 {
			t.Fatalf("%s: checkpoint is not the mid-run request: %+v", backend, st)
		}
	}
}

// TestCheckpointIntoMissingDir: a checkpoint that cannot be written fails
// the run (exit 1, error on stderr) and leaves no file behind, in every
// mode and backend.
func TestCheckpointIntoMissingDir(t *testing.T) {
	prog := writeFile(t, "c.c", ckptC)
	for _, flags := range [][]string{{"-mode", "cycle"}, {"-mode", "func"}, {"-mode", "func", "-backend", "vm"}} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "missing", "f.ckpt")
		code, _, stderr := runRun(append(flags, "-checkpoint", ckpt, prog)...)
		if code != 1 || !strings.Contains(stderr, "xmtrun: ") || !strings.Contains(stderr, "no such file or directory") {
			t.Errorf("%v: exit %d, stderr:\n%s", flags, code, stderr)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%v: left %v (%v)", flags, entries, err)
		}
	}
}

// TestConfigPrecedence: dedicated flags beat -set, which beats the preset.
func TestConfigPrecedence(t *testing.T) {
	prog := writeFile(t, "c.c", ckptC)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "func_backend=vm", "-backend", "interp"}, "instructions (functional mode) ==="},
		{[]string{"-set", "func_backend=interp", "-backend", "vm"}, "instructions (functional mode, vm backend) ==="},
		{[]string{"-set", "func_backend=vm"}, "instructions (functional mode, vm backend) ==="},
	} {
		code, _, stderr := runRun(append(append([]string{"-mode", "func"}, tc.args...), prog)...)
		if code != 0 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr:\n%s\nwant %q", tc.args, code, stderr, tc.want)
		}
	}
	samples := filepath.Join(t.TempDir(), "s.jsonl")
	if code, _, stderr := runRun("-set", "sample_cycles=0", "-sample-cycles", "50", "-samples", samples, prog); code != 0 {
		t.Errorf("-sample-cycles over -set: exit %d: %s", code, stderr)
	}
	if code, _, stderr := runRun("-sample-cycles", "0", "-set", "sample_cycles=50", "-samples", samples, prog); code != 1 ||
		!strings.Contains(stderr, "-samples needs a sampling interval") {
		t.Errorf("-sample-cycles 0 over -set: exit %d: %s", code, stderr)
	}
}

func TestFuncModeRejectsCycleFlags(t *testing.T) {
	prog := writeFile(t, "c.c", ckptC)
	for _, flags := range [][]string{
		{"-counters"}, {"-profile"}, {"-race-check"}, {"-samples", "s.jsonl"},
		{"-counters-json", "c.json"}, {"-trace", "t.json"},
	} {
		code, out, stderr := runRun(append(append([]string{"-mode", "func"}, flags...), prog)...)
		if code != 1 || out != "" || !strings.Contains(stderr, flags[0]+": cycle-accurate mode only") {
			t.Errorf("%v: exit %d, stdout %q, stderr:\n%s", flags, code, out, stderr)
		}
	}
}

func TestBackendVMRejectedInCycleMode(t *testing.T) {
	prog := writeFile(t, "c.c", ckptC)
	code, out, stderr := runRun("-backend", "vm", prog)
	if code != 1 || out != "" || !strings.Contains(stderr, "xmtrun: -backend vm applies to the functional mode (-mode func)") {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s", code, out, stderr)
	}
}

func TestUsageAndErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "-no-prefetch"},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{nil, 2, "usage: xmtrun [flags] program.c"},
		{[]string{"-config", "nope", "x.c"}, 1, "xmtrun: "},
		{[]string{filepath.Join(t.TempDir(), "none.c")}, 1, "no such file"},
		{[]string{writeFile(t, "bad.c", "int main() { return x; }")}, 1, "xmtrun: "},
		{[]string{"-mem", filepath.Join(t.TempDir(), "none.map"), writeFile(t, "c.c", ckptC)}, 1, "no such file"},
	} {
		code, _, stderr := runRun(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr:\n%s\nwant exit %d with %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}

// TestCycleReports runs cycle mode with the shared reports and xmtrun's
// -stats opcode histogram on.
func TestCycleReports(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, "c.c", ckptC)
	ckpt := filepath.Join(dir, "c.ckpt")
	code, out, stderr := runRun("-stats", "-counters", "-profile", "-race-check", "-checkpoint", ckpt,
		"-counters-json", filepath.Join(dir, "c.json"), "-trace", filepath.Join(dir, "t.json"), prog)
	if code != 0 || out != "42" {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s", code, out, stderr)
	}
	for _, want := range []string{"instructions (checkpoint) ===", "checkpoint written to " + ckpt, "xmtsan: 0 race(s)", "chrome trace written to"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	loadCheckpoint(t, ckpt)
}

// TestInterruptWritesCheckpoint: the first signal stops a functional run at
// an instruction boundary and writes -checkpoint.
func TestInterruptWritesCheckpoint(t *testing.T) {
	notify = func(_ string, onFirst func()) func() { onFirst(); return func() {} }
	t.Cleanup(func() { notify = sigctl.Notify })
	prog := writeFile(t, "loop.c", `
int main() {
    int i, s = 0;
    for (i = 0; i < 100000; i++) s = s + i;
    print_int(s);
    return 0;
}
`)
	for _, backend := range []string{"interp", "vm"} {
		ckpt := filepath.Join(t.TempDir(), "f.ckpt")
		code, out, stderr := runRun("-mode", "func", "-backend", backend, "-checkpoint", ckpt, prog)
		if code != 0 || out != "" || !strings.Contains(stderr, "stopped by signal) ===") {
			t.Fatalf("%s: exit %d, stdout %q, stderr:\n%s", backend, code, out, stderr)
		}
		if st := loadCheckpoint(t, ckpt); st.Halted || st.InstrCount < 1<<16 {
			t.Fatalf("%s: checkpoint at instruction %d, halted=%v", backend, st.InstrCount, st.Halted)
		}
	}
}
