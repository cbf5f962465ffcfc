package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"xmtgo/internal/daemon"
)

const testProg = `
        .data
A:      .space 64
        .text
        .global main
main:
        li    $t0, 2000
        li    $t2, 0
Lloop:  addiu $t2, $t2, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, Lloop
        la    $t1, A
        sw    $t2, 0($t1)
        lw    $v0, 0($t1)
        sys   1
        sys   0
`

// TestRunServeSubmitDrain drives the daemon entrypoint in-process: start it
// on a unix socket with metrics serving on, submit and finish a job over the
// protocol, drain, and require the clean exit code.
func TestRunServeSubmitDrain(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-listen", "unix:" + sock,
			"-data", filepath.Join(dir, "data"),
			"-workers", "1",
			"-checkpoint-every", "50000",
			"-set", "mem_bytes=1048576",
			"-serve", "127.0.0.1:0",
		})
	}()

	var c *daemon.Client
	deadline := time.Now().Add(30 * time.Second)
	for {
		var err error
		if c, err = daemon.Dial("unix:" + sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c.Close()

	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st, err := c.Submit(&daemon.JobSpec{Name: "t", Kind: "asm", Source: testProg})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != daemon.StateDone || fin.Result == nil || fin.Result.Output != "2000" {
		t.Fatalf("job finished %s with %+v", fin.State, fin.Result)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("run exited %d after drain, want 0", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after drain")
	}
}

func TestRunFatalPaths(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad preset", []string{"-config", "nope", "-data", filepath.Join(dir, "a")}},
		{"bad set", []string{"-set", "bogus", "-data", filepath.Join(dir, "b")}},
		{"bad serve addr", []string{"-serve", "127.0.0.1:99999", "-data", filepath.Join(dir, "c")}},
		{"bad listen addr", []string{"-listen", "unix:" + filepath.Join(dir, "missing", "d.sock"), "-data", filepath.Join(dir, "d")}},
	} {
		if got := run(tc.args); got != 1 {
			t.Errorf("%s: run = %d, want 1", tc.name, got)
		}
	}
}

// TestFlagNames pins xmtd's flag set, read back from its -h listing: the
// config flags moved to internal/runopts without adding or removing one.
func TestFlagNames(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "help"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f // the flag set prints its listing to os.Stderr
	code := run([]string{"-h"})
	out, err := os.ReadFile(f.Name())
	bogus := run([]string{"-bogus"})
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || bogus != 2 {
		t.Fatalf("-h: exit %d, want 0; unknown flag: exit %d, want 2", code, bogus)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(string(out), -1) {
		names = append(names, m[1])
	}
	want := []string{"backoff", "budget", "checkpoint-every", "config", "data", "listen", "log-level",
		"max-queued", "pprof", "q", "retries", "sample-cycles", "serve", "set", "tenant-max-budget",
		"tenant-max-queued", "tenant-max-running", "trace", "workers"}
	if !slices.Equal(names, want) {
		t.Fatalf("flags\n%v\nwant\n%v", names, want)
	}
}
