package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"xmtgo/internal/daemon"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/metrics"
)

// loopAsm is a serial register loop with a final store: register-dominated
// so the master passes quiescent checkpoint boundaries every cycle, with
// the result both stored and printed so output and memory witness
// completion.
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

// memWalkAsm walks memory a cache line per iteration, so the master is
// always a few cycles from its next shared-cache access: an injected
// permanent stall of every module wedges it.
const memWalkAsm = `
        .data
A:      .space 8192
        .text
main:
        la    $t0, A
        li    $t1, 0
        li    $t3, 0
L:      lw    $t2, 0($t0)
        addu  $t1, $t1, $t2
        addiu $t0, $t0, 32
        addiu $t3, $t3, 1
        slti  $at, $t3, 200
        bne   $at, $zero, L
        move  $v0, $t1
        sys   1
        sys   0
`

const compactC = "../../examples/xmtc/compact.c"

func writeFile(t *testing.T, path, data string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lockedBuffer collects a writer's output across goroutines (the daemon
// logs from its worker) and calls onWrite with each write.
type lockedBuffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	onWrite func(string)
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf.Write(p)
	b.mu.Unlock()
	if b.onWrite != nil {
		b.onWrite(string(p))
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runBatch runs the command in-process and returns its exit code and
// stdout; stderr goes to the given buffer (nil = a fresh one).
func runBatch(t *testing.T, stderr *lockedBuffer, args ...string) (int, string) {
	t.Helper()
	if stderr == nil {
		stderr = &lockedBuffer{}
	}
	var stdout bytes.Buffer
	code := run(args, &stdout, stderr)
	t.Logf("xmtbatch %s -> %d\nstdout:\n%s", strings.Join(args, " "), code, stdout.String())
	return code, stdout.String()
}

// captureInterrupt replaces the signal handler with one the test fires:
// the returned trigger runs the first-signal callback exactly as SIGINT
// would.
func captureInterrupt(t *testing.T) (trigger func()) {
	var mu sync.Mutex
	var onFirst func()
	notify = func(_ string, f func()) func() {
		mu.Lock()
		onFirst = f
		mu.Unlock()
		return func() {}
	}
	t.Cleanup(func() { notify = sigctl.Notify })
	return func() {
		mu.Lock()
		f := onFirst
		mu.Unlock()
		f()
	}
}

// journaled returns each job's terminal result from the journal under dir,
// keyed by job name.
func journaled(t *testing.T, dir string) map[string]*daemon.JobResult {
	t.Helper()
	jl, recs, err := daemon.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()
	names := map[string]string{}
	out := map[string]*daemon.JobResult{}
	for _, r := range recs {
		switch r.Kind {
		case daemon.RecSubmit:
			names[r.ID] = r.Spec.Name
		case daemon.RecDone:
			out[names[r.ID]] = r.Result
		}
	}
	return out
}

// resultLines returns stdout's result lines as "status name" pairs.
func resultLines(stdout string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			out = append(out, f[0]+" "+f[1])
		}
	}
	return out
}

var serveRE = regexp.MustCompile(`serving metrics on http://(\S+) `)

// TestRunInterruptResume pins docs/ROBUSTNESS.md's promise that re-running
// the same command resumes the batch: interrupt mid-job (INTR, exit 0),
// re-run on the same -out, and every job finishes with output and mem_hash
// bit-identical to an uninterrupted batch, reported in jobs-file order. The
// interrupted run also serves metrics, and /status must carry the daemon
// block while the batch runs.
func TestRunInterruptResume(t *testing.T) {
	dir := t.TempDir()
	jobsFile := writeFile(t, filepath.Join(dir, "jobs.txt"), "# interrupt/resume\n"+
		"short "+writeFile(t, filepath.Join(dir, "short.s"), loopAsm(2000))+"\n"+
		"long "+writeFile(t, filepath.Join(dir, "long.s"), loopAsm(300_000))+"\n"+
		"compact "+compactC+" clusters=2 cache_modules=2\n")
	args := func(out string, extra ...string) []string {
		return append([]string{"-checkpoint-every", "20000", "-set", "mem_bytes=1048576", "-out", out}, append(extra, jobsFile)...)
	}
	want := []string{"ok short", "ok long", "ok compact"}

	refDir := filepath.Join(dir, "ref")
	if code, stdout := runBatch(t, nil, args(refDir)...); code != 0 || !equal(resultLines(stdout), want) {
		t.Fatalf("uninterrupted batch: exit %d, lines %q", code, resultLines(stdout))
	}
	ref := journaled(t, refDir)

	// Interrupt at the long job's first checkpoint, after scraping /status.
	outDir := filepath.Join(dir, "out")
	trigger := captureInterrupt(t)
	var once sync.Once
	var status metrics.Status
	var scrapeErr error
	fired := make(chan struct{})
	stderr := &lockedBuffer{}
	stderr.onWrite = func(s string) {
		if !strings.Contains(s, `"msg":"checkpoint"`) || !strings.Contains(s, `"job":"j2"`) {
			return
		}
		once.Do(func() {
			go func() {
				defer close(fired)
				scrapeErr = scrapeStatus(serveRE.FindStringSubmatch(stderr.String()), &status)
				trigger()
			}()
		})
	}
	code, stdout := runBatch(t, stderr, args(outDir, "-serve", "127.0.0.1:0")...)
	<-fired
	if code != 0 {
		t.Fatalf("interrupted batch exited %d\nstderr:\n%s", code, stderr)
	}
	if got := resultLines(stdout); !equal(got, []string{"ok short", "INTR long"}) {
		t.Fatalf("interrupted batch lines %q", got)
	}
	if !strings.Contains(stdout, "(checkpoint saved; re-run to resume)") {
		t.Errorf("INTR line does not promise a resume:\n%s", stdout)
	}
	if !strings.Contains(stderr.String(), "interrupted; 2 of 3 jobs not finished") {
		t.Errorf("stderr lacks the unfinished count:\n%s", stderr)
	}
	if scrapeErr != nil {
		t.Fatalf("scrape /status: %v", scrapeErr)
	}
	if status.Daemon == nil || status.Daemon.Running != 1 || status.Daemon.Completed != 1 {
		t.Errorf("/status mid-batch daemon block = %+v, want 1 running, 1 completed", status.Daemon)
	}

	// Re-run the same command (signals unused this time).
	captureInterrupt(t)
	code, stdout = runBatch(t, nil, args(outDir)...)
	if code != 0 || !equal(resultLines(stdout), want) {
		t.Fatalf("re-run: exit %d, lines %q", code, resultLines(stdout))
	}
	if !strings.Contains(stdout, "resumes=1") {
		t.Errorf("re-run did not resume the interrupted job:\n%s", stdout)
	}
	got := journaled(t, outDir)
	for name, w := range ref {
		g := got[name]
		if g == nil || g.Output != w.Output || g.MemHash != w.MemHash {
			t.Errorf("job %s: resumed result %+v, uninterrupted %+v", name, g, w)
		}
	}
}

func scrapeStatus(m []string, st *metrics.Status) error {
	if m == nil {
		return errors.New("no serving line on stderr")
	}
	resp, err := http.Get("http://" + m[1] + "/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(st)
}

func equal(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// TestRunInterruptWithoutOut: with no -out the checkpoint lives in a
// temporary directory removed on exit, and the INTR line must say so.
func TestRunInterruptWithoutOut(t *testing.T) {
	dir := t.TempDir()
	jobsFile := writeFile(t, filepath.Join(dir, "jobs.txt"),
		"long "+writeFile(t, filepath.Join(dir, "long.s"), loopAsm(300_000))+"\n")
	trigger := captureInterrupt(t)
	var once sync.Once
	stderr := &lockedBuffer{}
	stderr.onWrite = func(s string) {
		if strings.Contains(s, `"msg":"checkpoint"`) {
			once.Do(func() { go trigger() })
		}
	}
	code, stdout := runBatch(t, stderr, "-checkpoint-every", "20000", "-set", "mem_bytes=1048576", jobsFile)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "INTR long") || !strings.Contains(stdout, "not resumable: no -out directory") {
		t.Fatalf("INTR line must say the job cannot be resumed:\n%s", stdout)
	}
}

// TestRunGivesUpOnWedgedJob bounds the retry loop: a job wedged by a
// permanent injected stall (a per-job override) fails with the watchdog
// diagnostic after exactly retries+1 attempts, and the next job still runs.
func TestRunGivesUpOnWedgedJob(t *testing.T) {
	dir := t.TempDir()
	jobsFile := writeFile(t, filepath.Join(dir, "jobs.txt"),
		"wedge "+writeFile(t, filepath.Join(dir, "walk.s"), memWalkAsm)+
			" fault_plan=cachestall:8x100000000@100-120 watchdog_cycles=2000\n"+
			"after "+writeFile(t, filepath.Join(dir, "short.s"), loopAsm(2000))+"\n")
	stderr := &lockedBuffer{}
	code, stdout := runBatch(t, stderr, "-q", "-timeout", "10000000", "-retries", "2", "-out", filepath.Join(dir, "out"), jobsFile)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if got := resultLines(stdout); !equal(got, []string{"FAIL wedge", "ok after"}) {
		t.Fatalf("lines %q", got)
	}
	if !strings.Contains(stdout, "attempts=3") || !strings.Contains(stdout, "watchdog") {
		t.Errorf("FAIL line must show 3 attempts and the watchdog diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stderr.String(), "1 of 2 jobs failed") {
		t.Errorf("stderr:\n%s", stderr)
	}
}

// TestRunManyJobs: the queue bound derives from the jobs file, so a batch
// larger than the daemon's default queue (256) is accepted and reported in
// order.
func TestRunManyJobs(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, filepath.Join(dir, "tiny.s"), loopAsm(10))
	var jobs strings.Builder
	var want []string
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&jobs, "j%03d %s\n", i, prog)
		want = append(want, fmt.Sprintf("ok j%03d", i))
	}
	jobsFile := writeFile(t, filepath.Join(dir, "jobs.txt"), jobs.String())
	code, stdout := runBatch(t, nil, "-q", "-set", "mem_bytes=1048576", jobsFile)
	if code != 0 || !equal(resultLines(stdout), want) {
		t.Fatalf("exit %d, %d result lines", code, len(resultLines(stdout)))
	}
}

// TestRunChangedRerun: a re-run whose jobs file no longer matches the
// journal under -out must fail before running anything, naming the file,
// line and job, and never report the old job's result.
func TestRunChangedRerun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	prog := writeFile(t, filepath.Join(dir, "a.s"), loopAsm(2000))
	jobsFile := writeFile(t, filepath.Join(dir, "jobs.txt"), "# first line is a comment\na "+prog+"\n")
	if code, _ := runBatch(t, nil, "-q", "-out", out, jobsFile); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	_, before, err := daemon.OpenJournal(filepath.Join(out, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}

	writeFile(t, prog, loopAsm(3000)) // the program changed between runs
	stderr := &lockedBuffer{}
	code, stdout := runBatch(t, stderr, "-q", "-out", out, jobsFile)
	if code != 1 || stdout != "" {
		t.Fatalf("changed re-run: exit %d, stdout %q; want 1 and nothing reported", code, stdout)
	}
	if want := jobsFile + ":2: job a differs"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr, want)
	}
	jobs, err := loadJobs(jobsFile)
	if err != nil {
		t.Fatal(err)
	}
	var cerr *changedJobError
	if err := checkRerun(out, jobsFile, jobs); !errors.As(err, &cerr) || cerr.line != 2 || cerr.name != "a" {
		t.Errorf("checkRerun = %v, want a changedJobError for line 2, job a", err)
	}
	// Overrides count as part of the job too.
	writeFile(t, prog, loopAsm(2000))
	writeFile(t, jobsFile, "a "+prog+" clusters=2\n")
	if code, _ := runBatch(t, nil, "-q", "-out", out, jobsFile); code != 1 {
		t.Errorf("re-run with changed overrides exited %d, want 1", code)
	}
	// A journaled job missing from the jobs file is rejected as well.
	writeFile(t, jobsFile, "b "+prog+"\n")
	if code, _ := runBatch(t, nil, "-q", "-out", out, jobsFile); code != 1 {
		t.Errorf("re-run without journaled job a exited %d, want 1", code)
	}

	_, after, err := daemon.OpenJournal(filepath.Join(out, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("rejected re-runs journaled %d new records; they must run nothing", len(after)-len(before))
	}
}

func TestRunUsageAndFatalPaths(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, filepath.Join(dir, "a.s"), loopAsm(10))
	bad := writeFile(t, filepath.Join(dir, "bad.c"), "int main() { return undeclared; }\n")
	jobs := func(name, body string) string { return writeFile(t, filepath.Join(dir, name), body) }
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"no jobs file", nil, 2},
		{"unknown flag", []string{"-nope", "x"}, 2},
		{"help", []string{"-h"}, 0},
		{"bad preset", []string{"-config", "nope", jobs("j1", "a "+prog+"\n")}, 1},
		{"bad set", []string{"-set", "bogus", jobs("j2", "a "+prog+"\n")}, 1},
		{"missing jobs file", []string{filepath.Join(dir, "missing.txt")}, 1},
		{"empty jobs file", []string{jobs("j3", "# nothing\n\n")}, 1},
		{"short line", []string{jobs("j4", "lonely\n")}, 1},
		{"duplicate name", []string{jobs("j5", "a "+prog+"\na "+prog+"\n")}, 1},
		{"bad override", []string{jobs("j6", "a "+prog+" clusters\n")}, 1},
		{"missing program", []string{jobs("j7", "a "+filepath.Join(dir, "none.s")+"\n")}, 1},
		{"compile error", []string{"-q", jobs("j8", "a "+prog+"\nb "+bad+"\n")}, 1},
		{"bad job override", []string{"-q", jobs("j9", "a "+prog+" nokey=1\n")}, 1},
		{"pprof without serve", []string{"-pprof", jobs("j10", "a "+prog+"\n")}, 1},
		{"bad serve addr", []string{"-serve", "127.0.0.1:99999", jobs("j11", "a "+prog+"\n")}, 1},
	} {
		if got, _ := runBatch(t, nil, tc.args...); got != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.code)
		}
	}
}

// TestFlagNames pins xmtbatch's flag set, read back from its -h listing: the
// config flags moved to internal/runopts without adding or removing one.
func TestFlagNames(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	got := regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(stderr.String(), -1)
	var names []string
	for _, m := range got {
		names = append(names, m[1])
	}
	want := []string{"backoff", "checkpoint-every", "config", "out", "pprof", "q", "retries",
		"sample-cycles", "serve", "set", "timeout", "workers"}
	if !slices.Equal(names, want) {
		t.Fatalf("flags\n%v\nwant\n%v", names, want)
	}
}
