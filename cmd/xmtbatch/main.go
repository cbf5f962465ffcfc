// Command xmtbatch drives a batch of simulation jobs to completion with
// per-job cycle budgets, periodic checkpoints, and bounded retry-with-backoff
// — the workflow the paper describes for long simulation campaigns (§III-E),
// hardened so a single wedged or slow job never sinks the batch
// (docs/ROBUSTNESS.md).
//
// The batch runs on an in-process xmtd daemon (internal/daemon) with one
// worker, so jobs run one at a time in jobs-file order and inherit the
// daemon's journal, checkpoint envelopes, retry policy and drain. The -out
// directory is the daemon's data directory: re-running the same command on
// it resumes the batch, reporting finished jobs from the journal and
// resuming interrupted ones from their last checkpoint.
//
// Usage:
//
//	xmtbatch [flags] jobs.txt
//
// The jobs file holds one job per line:
//
//	name program.{s,c} [key=value ...]
//
// where the optional key=value pairs override the base configuration for
// that job only. Blank lines and lines starting with '#' are skipped.
//
// Examples:
//
//	xmtbatch -timeout 5000000 -retries 3 -out ckpt/ jobs.txt
//	xmtbatch -config chip1024 -set dram_latency=40 jobs.txt
//	xmtbatch -checkpoint-every 1000000 -timeout 2000000 jobs.txt
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"xmtgo/internal/daemon"
	"xmtgo/internal/runopts"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/metrics"
)

// notify installs the two-stage SIGINT/SIGTERM handler; tests replace it to
// deliver the first-signal interrupt in-process.
var notify = sigctl.Notify

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmtbatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf := runopts.ConfigFlags(fs, "override one configuration key=value for every job (repeatable)")
	var (
		timeout   = fs.Int64("timeout", 0, "first-attempt cycle budget per job (0 = unlimited)")
		ckptEvery = fs.Int64("checkpoint-every", 0, "checkpoint each job every N cluster cycles (0 = only program-requested checkpoints)")
		retries   = fs.Int("retries", 2, "retry attempts per failed or timed-out job")
		backoff   = fs.Float64("backoff", 2, "cycle-budget and watchdog multiplier between attempts")
		outDir    = fs.String("out", "", "data directory for the job journal and checkpoints; re-running on it resumes the batch (empty = a temporary directory, not resumable)")
		quiet     = fs.Bool("q", false, "suppress per-attempt progress lines")

		serveAddr = fs.String("serve", "", "serve live metrics on this address while the batch runs (/metrics, /status, /stream)")
		pprofFlag = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -serve address")
	)
	fs.IntVar(&cf.Workers, "workers", 0, "host worker goroutines for the cluster shards: 0 = serial (1 worker); N>1 = N parallel workers, results identical")
	fs.Int64Var(&cf.SampleCycles, "sample-cycles", -1, "interval-sampler period for -serve in cluster cycles (-1 = keep the preset's sample_cycles)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xmtbatch [flags] jobs.txt")
		fs.PrintDefaults()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xmtbatch:", err)
		return 1
	}

	cfg, err := cf.Resolve()
	if err != nil {
		return fail(err)
	}

	jobsPath := fs.Arg(0)
	jobs, err := loadJobs(jobsPath)
	if err != nil {
		return fail(err)
	}
	if len(jobs) == 0 {
		return fail(fmt.Errorf("%s: no jobs", jobsPath))
	}

	dataDir := *outDir
	if dataDir == "" {
		if dataDir, err = os.MkdirTemp("", "xmtbatch-"); err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dataDir)
	} else if err := checkRerun(dataDir, jobsPath, jobs); err != nil {
		return fail(err)
	}

	opts := daemon.Options{
		Config:          cfg,
		DataDir:         dataDir,
		Workers:         1, // one job at a time, in jobs-file order
		BudgetCycles:    *timeout,
		CheckpointEvery: *ckptEvery,
		Retries:         *retries,
		Backoff:         *backoff,
		MaxQueued:       len(jobs),
		SampleCycles:    cfg.SampleCycles,
		LogLevel:        slog.LevelDebug,
	}
	if !*quiet {
		opts.Log = stderr
	}
	if *serveAddr != "" {
		msrv := metrics.NewServer()
		if *pprofFlag {
			msrv.EnablePprof()
		}
		addr, err := msrv.ListenAndServe(*serveAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "serving metrics on http://%s (/metrics /status /stream)\n", addr)
		opts.Monitor = msrv
		defer msrv.Close()
	} else if *pprofFlag {
		return fail(fmt.Errorf("-pprof requires -serve"))
	}

	d, err := daemon.New(opts)
	if err != nil {
		return fail(err)
	}
	// First SIGINT/SIGTERM drains the daemon: the running job checkpoints at
	// its next quiescent point and stays journaled as queued, like every job
	// not yet started; a second signal forces exit. drain is shared with the
	// normal shutdown below and runs once (concurrent callers wait for it).
	drain := sync.OnceValue(d.Drain)
	intr := make(chan struct{})
	stopSig := notify("xmtbatch", func() {
		close(intr)
		drain()
	})
	defer stopSig()

	// A re-run on the same -out finds its jobs in the replayed journal
	// (checkRerun proved their specs unchanged): finished ones report their
	// journaled result, unfinished ones are already queued to resume.
	ids := make(map[string]string, len(jobs))
	for _, st := range d.List("") {
		ids[st.Name] = st.ID
	}
	for _, j := range jobs {
		if ids[j.spec.Name] != "" {
			continue
		}
		st, aerr := d.Submit(&j.spec)
		if aerr != nil {
			if aerr.Code == daemon.ErrDraining {
				break // interrupted: the rest are simply not started
			}
			drain()
			return fail(fmt.Errorf("%s:%d: job %s (%s): %v", jobsPath, j.line, j.spec.Name, j.path, aerr))
		}
		ids[j.spec.Name] = st.ID
	}
	waitAll(d, jobs, ids, intr)
	if err := drain(); err != nil {
		return fail(err)
	}

	failed, reported, unfinished := 0, 0, 0
	for _, j := range jobs {
		st, aerr := d.Status(ids[j.spec.Name])
		switch {
		case aerr != nil || st.State == daemon.StateQueued && st.Attempt == 0:
			unfinished++ // never started
		case st.State == daemon.StateQueued:
			unfinished++
			note := "checkpoint saved; re-run to resume"
			if *outDir == "" {
				note = "not resumable: no -out directory, checkpoint discarded"
			}
			fmt.Fprintf(stdout, "INTR %-20s attempts=%d resumes=%d cycles=%d (%s)\n",
				st.Name, st.Attempt, st.Resumes, st.Cycles, note)
		case st.State == daemon.StateDone:
			reported++
			r := st.Result
			fmt.Fprintf(stdout, "ok   %-20s attempts=%d resumes=%d cycles=%d instrs=%d output=%q\n",
				st.Name, st.Attempt, st.Resumes, r.Cycles, r.Instrs, r.Output)
		default:
			reported++
			failed++
			fmt.Fprintf(stdout, "FAIL %-20s attempts=%d resumes=%d: %s\n",
				st.Name, st.Attempt, st.Resumes, st.Result.Err)
		}
	}
	if unfinished > 0 {
		fmt.Fprintf(stderr, "xmtbatch: interrupted; %d of %d jobs not finished\n", unfinished, len(jobs))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "xmtbatch: %d of %d jobs failed\n", failed, reported)
		return 1
	}
	return 0
}

// waitAll blocks until every job is terminal or the first signal arrives.
func waitAll(d *daemon.Daemon, jobs []job, ids map[string]string, intr <-chan struct{}) {
	for _, j := range jobs {
		for {
			select {
			case <-intr:
				return
			default:
			}
			if _, aerr := d.Wait(ids[j.spec.Name], 50*time.Millisecond); aerr == nil || aerr.Code != daemon.ErrTimeout {
				break
			}
		}
	}
}

// job is one jobs-file line as a daemon submission.
type job struct {
	spec daemon.JobSpec
	path string // program file
	line int
}

// loadJobs parses the jobs file: one "name program [key=value ...]" per
// line. Programs ending in .s are assembly; anything else is XMTC, compiled
// by the daemon at submission.
func loadJobs(path string) ([]job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var jobs []job
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"name program [key=value ...]\"", path, lineNo)
		}
		name, progPath := fields[0], fields[1]
		if seen[name] {
			return nil, fmt.Errorf("%s:%d: duplicate job name %q", path, lineNo, name)
		}
		seen[name] = true
		for _, kv := range fields[2:] {
			if !strings.Contains(kv, "=") {
				return nil, fmt.Errorf("%s:%d: override %q is not key=value", path, lineNo, kv)
			}
		}
		src, err := os.ReadFile(progPath)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		kind := "xmtc"
		if filepath.Ext(progPath) == ".s" {
			kind = "asm"
		}
		jobs = append(jobs, job{
			spec: daemon.JobSpec{Name: name, Kind: kind, Source: string(src), Sets: fields[2:]},
			path: progPath,
			line: lineNo,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// changedJobError reports a jobs-file line whose name matches a job already
// journaled under -out but whose program or overrides differ: resuming the
// old checkpoint or reporting the old result would silently answer for a
// different job.
type changedJobError struct {
	path string
	line int
	name string
	dir  string
}

func (e *changedJobError) Error() string {
	return fmt.Sprintf("%s:%d: job %s differs from the job of that name journaled in %s (program or overrides changed); use a fresh -out directory",
		e.path, e.line, e.name, e.dir)
}

// checkRerun matches the jobs already journaled under dir against the jobs
// file before anything runs: every journaled job must be a line of the file
// with the same kind, source and overrides.
func checkRerun(dir, path string, jobs []job) error {
	jl, recs, err := daemon.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		return err
	}
	if err := jl.Close(); err != nil {
		return err
	}
	byName := make(map[string]*job, len(jobs))
	for i := range jobs {
		byName[jobs[i].spec.Name] = &jobs[i]
	}
	for _, rec := range recs {
		if rec.Kind != daemon.RecSubmit || rec.Spec == nil {
			continue
		}
		j := byName[rec.Spec.Name]
		if j == nil {
			return fmt.Errorf("%s: job %s journaled in %s is not in the jobs file; use a fresh -out directory", path, rec.Spec.Name, dir)
		}
		if j.spec.Kind != rec.Spec.Kind || j.spec.Source != rec.Spec.Source || !slices.Equal(j.spec.Sets, rec.Spec.Sets) {
			return &changedJobError{path: path, line: j.line, name: j.spec.Name, dir: dir}
		}
	}
	return nil
}
