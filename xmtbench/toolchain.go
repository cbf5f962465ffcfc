package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmtgo"
	"xmtgo/internal/asm"
	"xmtgo/internal/asm/postpass"
	"xmtgo/internal/codegen"
	"xmtgo/internal/prng"
	"xmtgo/internal/workloads"
	"xmtgo/internal/xmtc"
	"xmtgo/internal/xmtc/prepass"
)

// Corpus sizes. They are fixed so that runs with different seeds do the
// same amount of work; the seed draws the data (array contents, graphs,
// histogram samples).
const (
	tcThreads      = 1024  // Table I parallel groups: virtual threads
	tcSerialWork   = 40000 // Table I serial groups: loop iterations
	tcCompactN     = 3000  // Compaction elements (a ~10 KB data-heavy source)
	tcReduceN      = 4096
	tcVecAddN      = 4096
	tcMatMulN      = 24
	tcFFTN         = 256
	tcPrefixN      = 1024
	tcGraphN       = 1024 // BFS and connectivity vertices
	tcGraphDeg     = 6
	tcComponents   = 4
	tcHistSamples  = 2048
	tcExamplesGlob = "examples/xmtc/*.c"
)

// tcProgram is one corpus program and the output an oracle independent of
// the compiler expects from it.
type tcProgram struct {
	name    string
	src     string
	memMaps []string
	want    string
}

// exampleWants are the expected outputs of the runnable examples in
// functional mode, where spawn blocks run their virtual threads in order.
// Examples not listed here never halt in functional mode by design (they
// spin-wait on another thread or loop forever to exercise the analyzer)
// and are left out.
var exampleWants = map[string]func(seed uint64) (memMap, want string){
	"compact.c":        func(uint64) (string, string) { return "", "non-zero elements: 22\n" },
	"litmus_psm.c":     func(uint64) (string, string) { return "", "11" },
	"litmus_relaxed.c": func(uint64) (string, string) { return "", "11" },
	"suppress.c":       func(uint64) (string, string) { return "", "0" },
	"histogram.c":      histogramInput,
}

// histogramInput draws samples for examples/xmtc/histogram.c and computes
// the histogram the program prints.
func histogramInput(seed uint64) (memMap, want string) {
	rng := prng.NewStream(seed, 7)
	var count, sum [16]int64
	var mm strings.Builder
	fmt.Fprintf(&mm, "n = %d\nsamples =", tcHistSamples)
	for i := 0; i < tcHistSamples; i++ {
		v := rng.Intn(4096)
		fmt.Fprintf(&mm, " %d", v)
		count[(v>>8)&15]++
		sum[(v>>8)&15] += int64(v)
	}
	mm.WriteByte('\n')
	var w strings.Builder
	for i := range count {
		fmt.Fprintf(&w, "%d: %d (sum %d)\n", i, count[i], sum[i])
	}
	return mm.String(), w.String()
}

// corpus generates every program of the toolchain workload from the seed.
func corpus(seed uint64) ([]tcProgram, error) {
	var ps []tcProgram
	add := func(name, src, want string, memMaps ...string) {
		ps = append(ps, tcProgram{name: name, src: src, want: want, memMaps: memMaps})
	}
	add("tablei-par-memory", workloads.TableI(workloads.ParallelMemory, tcThreads, tableIWork), "0")
	add("tablei-par-compute", workloads.TableI(workloads.ParallelCompute, tcThreads, tableIWork), "1")
	add("tablei-ser-memory", workloads.TableI(workloads.SerialMemory, 0, tcSerialWork), serialMemoryOracle(tcSerialWork))
	add("tablei-ser-compute", workloads.TableI(workloads.SerialCompute, 0, tcSerialWork), serialComputeOracle(tcSerialWork))

	src, nonZeros := workloads.Compaction(tcCompactN, 0.5, seed)
	add("compaction", src, fmt.Sprint(nonZeros))
	par, ser, want := workloads.Reduction(tcReduceN)
	add("reduction-par", par, fmt.Sprint(want))
	add("reduction-ser", ser, fmt.Sprint(want))
	par, ser, want = workloads.VecAdd(tcVecAddN)
	add("vecadd-par", par, fmt.Sprint(want))
	add("vecadd-ser", ser, fmt.Sprint(want))
	par, ser = workloads.MatMul(tcMatMulN)
	add("matmul-par", par, fmt.Sprint(workloads.MatMulTrace(tcMatMulN)))
	add("matmul-ser", ser, fmt.Sprint(workloads.MatMulTrace(tcMatMulN)))
	par, ser = workloads.FFT(tcFFTN)
	add("fft-par", par, workloads.FFTOracle(tcFFTN))
	add("fft-ser", ser, workloads.FFTOracle(tcFFTN))
	par, ser, last, mid := workloads.PrefixSum(tcPrefixN)
	add("prefixsum-par", par, fmt.Sprintf("%d %d", last, mid))
	add("prefixsum-ser", ser, fmt.Sprintf("%d %d", last, mid))

	g := workloads.RandomGraph(tcGraphN, tcGraphDeg, seed)
	reached, distSum := hostBFS(g.RowPtr, g.Col)
	par, ser = workloads.BFS(g.N, g.M)
	add("bfs-par", par, fmt.Sprintf("%d %d", reached, distSum), g.MemMap())
	add("bfs-ser", ser, fmt.Sprintf("%d %d", reached, distSum), g.MemMap())

	mm, comps := workloads.ComponentsGraph(tcGraphN, tcComponents, tcGraphDeg, seed)
	maxM := tcGraphN * tcGraphDeg / 2
	par, ser = workloads.Connectivity(tcGraphN, maxM)
	add("connectivity-par", par, fmt.Sprint(comps), mm)
	add("connectivity-ser", ser, fmt.Sprint(comps), mm)

	files, err := filepath.Glob(tcExamplesGlob)
	if err != nil {
		return nil, err
	}
	found := 0
	for _, f := range files {
		input, ok := exampleWants[filepath.Base(f)]
		if !ok {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		mm, want := input(seed)
		if mm == "" {
			add("example-"+filepath.Base(f), string(b), want)
		} else {
			add("example-"+filepath.Base(f), string(b), want, mm)
		}
		found++
	}
	if found != len(exampleWants) {
		return nil, fmt.Errorf("found %d of the %d runnable examples under %s", found, len(exampleWants), tcExamplesGlob)
	}
	return ps, nil
}

// serialMemoryOracle replays the serial memory-intensive Table I loop in
// 32-bit arithmetic.
func serialMemoryOracle(work int) string {
	a := make([]int32, work)
	var s int32
	for i := 0; i < work; i++ {
		s += a[(i*97)%work]
		a[(i*89+13)%work] = s
	}
	return fmt.Sprint(s)
}

// serialComputeOracle replays the serial compute-intensive Table I loop in
// 32-bit arithmetic.
func serialComputeOracle(work int) string {
	x := int32(1)
	for i := 0; i < work; i++ {
		x = x*1103515245 + 12345
		x ^= x >> 7
	}
	if x == 0 {
		return "0"
	}
	return "1"
}

// tcInstance is a set-up toolchain workload.
type tcInstance struct {
	cfg   xmtgo.Config
	progs []tcProgram
	bytes int // source bytes per pass
	// buildSec accumulates a phase's time in xmtgo.Build.
	buildSec float64
	passes   int
	// counts accumulates the layer work counts of a traced phase.
	counts map[string]float64
}

func setupToolchain(o *options) (instance, error) {
	ps, err := corpus(o.seed)
	if err != nil {
		return nil, err
	}
	t := &tcInstance{cfg: xmtgo.ConfigFPGA64(), progs: ps}
	for _, p := range ps {
		t.bytes += len(p.src)
	}
	return t, nil
}

func (t *tcInstance) describe(host map[string]any) {
	host["config"] = "fpga64"
	host["func_backend"] = funcBackend(t.cfg)
	host["corpus_programs"] = len(t.progs)
	host["corpus_bytes"] = t.bytes
}

// runProgram takes one program from source to a checked result through
// the same public calls as xmtrun's functional mode.
func (t *tcInstance) runProgram(p tcProgram, rec *recorder, op int) (instrs uint64, buildS, funcS float64, err error) {
	var prog *xmtgo.Program
	var out bytes.Buffer
	t0 := time.Now()
	err = rec.do("xmtgo.build", op, false, func() (err error) {
		prog, _, err = xmtgo.Build(p.name+".c", p.src, xmtgo.DefaultCompileOptions(), p.memMaps...)
		return err
	})
	t1 := time.Now()
	if err == nil {
		err = rec.do("func.run", op, true, func() (err error) {
			instrs, err = xmtgo.RunFunctional(prog, t.cfg, &out)
			return err
		})
	}
	t2 := time.Now()
	if err == nil {
		err = rec.do("oracle.check", op, false, func() error {
			if out.String() != p.want {
				return fmt.Errorf("output %q, want %q", out.String(), p.want)
			}
			return nil
		})
	}
	return instrs, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), err
}

// probeLayers repeats the work of xmtgo.Build one public layer call at a
// time, so each layer's share can be timed. codegen.Compile re-runs the
// front end internally; its core-pass time is what remains after the
// separately timed front-end calls are subtracted.
func (t *tcInstance) probeLayers(p tcProgram, rec *recorder, op int, counts map[string]float64) error {
	file := p.name + ".c"
	var f *xmtc.File
	var res *codegen.Result
	var prog *asm.Program
	steps := []struct {
		name string
		fn   func() error
	}{
		{"xmtc.lex", func() error {
			toks, err := xmtc.LexAll(file, p.src)
			counts["xmtc.tokens"] += float64(len(toks))
			return err
		}},
		{"xmtc.parse", func() (err error) { f, err = xmtc.Parse(file, p.src); return err }},
		{"xmtc.check", func() error { _, err := xmtc.Check(f); return err }},
		{"prepass.run", func() error { return prepass.Run(f, prepass.Options{}) }},
		{"xmtc.render", func() error { xmtc.Render(f); return nil }},
		{"codegen.compile", func() (err error) {
			opts := xmtgo.DefaultCompileOptions()
			opts.SkipPostpass = true
			res, err = codegen.Compile(file, p.src, opts)
			if err == nil {
				counts["codegen.functions"] += float64(res.Stats.Functions)
				counts["codegen.outlined_spawns"] += float64(res.Stats.OutlinedSpawns)
				counts["codegen.prefetches"] += float64(res.Stats.Prefetches)
				counts["codegen.nb_stores"] += float64(res.Stats.NonBlocking)
			}
			return err
		}},
		{"postpass.run", func() error {
			pres, err := postpass.Run(res.Unit)
			if err == nil {
				counts["postpass.relocated_blocks"] += float64(pres.RelocatedBlocks)
			}
			return err
		}},
		{"asm.assemble", func() (err error) {
			prog, err = asm.Assemble(res.Unit)
			if err == nil {
				counts["asm.text_words"] += float64(len(prog.Text))
			}
			return err
		}},
		{"asm.memmap", func() error {
			for _, mm := range p.memMaps {
				if err := asm.ApplyMemMap(prog, "memmap", mm); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	return rec.do("layers", op, false, func() error {
		for _, s := range steps {
			if err := rec.do(s.name, op, true, s.fn); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		return nil
	})
}

func (t *tcInstance) warm() error {
	for i, p := range t.progs {
		if _, _, _, err := t.runProgram(p, nil, i); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// measure runs whole passes over the corpus until d has passed. In a
// traced phase every program is also taken through probeLayers, outside
// the op being timed.
func (t *tcInstance) measure(d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{}
	t.buildSec, t.passes = 0, 0
	t.counts = map[string]float64{}
	start := time.Now()
	op := 0
	for pass := 0; time.Since(start) < d; pass++ {
		rec.setRound(pass)
		for _, p := range t.progs {
			op++
			ph.attempted++
			t0 := time.Now()
			var instrs uint64
			var buildS, funcS float64
			err := rec.do("program", op, false, func() (err error) {
				instrs, buildS, funcS, err = t.runProgram(p, rec, op)
				return err
			})
			lat := time.Since(t0)
			if err == nil && rec != nil {
				err = t.probeLayers(p, rec, op, t.counts)
			}
			if err != nil {
				ph.failed++
				fmt.Printf("FAIL pass %d %s: %v\n", pass, p.name, err)
				continue
			}
			ph.good++
			ph.lat = append(ph.lat, float64(lat.Nanoseconds())/1e6)
			ph.instrs += float64(instrs)
			ph.simSec += funcS
			t.buildSec += buildS
		}
		t.passes++
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func (t *tcInstance) report(p *phase, r *result) {
	r.reportf("programs_per_s %.3f programs/s (%d programs per pass, %d passes)",
		float64(p.good)/p.elapsed.Seconds(), len(t.progs), t.passes)
	r.layer["compile_kb_per_s"] = float64(t.bytes*t.passes) / 1024 / t.buildSec
	r.reportf("compile_kb_per_s %.1f KiB/s (%d source bytes per pass through xmtgo.Build)",
		r.layer["compile_kb_per_s"], t.bytes)
	r.reportf("func_instr_per_s %.0f instr/s (backend %s)", p.instrs/p.simSec, funcBackend(t.cfg))
}

// layers turns the traced phase's spans into per-pass layer self times.
// Per program: parse = Parse - LexAll, core = Compile{SkipPostpass} -
// (Parse + Check + prepass + Render). The traced total is the program
// span; whatever the layer times do not cover is toolchain.unattributed_s.
func (t *tcInstance) layers(tr *phase, rec *recorder, r *result) error {
	spans := rec.snapshot()
	self := selfTimes(spans)
	type key struct{ round, op int }
	secs := map[string]map[key]float64{}
	allocs := map[string]map[key]float64{}
	for i, s := range spans {
		k := key{s.round, s.op}
		if secs[s.name] == nil {
			secs[s.name], allocs[s.name] = map[key]float64{}, map[key]float64{}
		}
		secs[s.name][k] += float64(self[i]) / 1e9
		allocs[s.name][k] += float64(s.alloc) / (1 << 20)
	}
	perPass := func(f func(k key) float64) float64 {
		m := map[int]float64{}
		for k := range secs["program"] {
			m[k.round] += f(k)
		}
		return medianOf(m)
	}
	s := func(name string) func(k key) float64 { return func(k key) float64 { return secs[name][k] } }
	a := func(name string) func(k key) float64 { return func(k key) float64 { return allocs[name][k] } }
	// The program span's children are xmtgo.build, func.run and
	// oracle.check; its total is their sum plus its own self time.
	total := func(k key) float64 {
		return secs["program"][k] + secs["xmtgo.build"][k] + secs["func.run"][k] + secs["oracle.check"][k]
	}
	parse := func(k key) float64 { return secs["xmtc.parse"][k] - secs["xmtc.lex"][k] }
	core := func(k key) float64 {
		return secs["codegen.compile"][k] - secs["xmtc.parse"][k] - secs["xmtc.check"][k] -
			secs["prepass.run"][k] - secs["xmtc.render"][k]
	}
	layerSum := func(k key) float64 {
		return secs["xmtc.lex"][k] + parse(k) + secs["xmtc.check"][k] + secs["prepass.run"][k] +
			secs["xmtc.render"][k] + core(k) + secs["postpass.run"][k] + secs["asm.assemble"][k] +
			secs["asm.memmap"][k] + secs["func.run"][k] + secs["oracle.check"][k]
	}
	l := r.layer
	l["xmtc.lex_s"] = perPass(s("xmtc.lex"))
	l["xmtc.parse_s"] = perPass(parse)
	l["xmtc.check_s"] = perPass(s("xmtc.check"))
	l["xmtc.render_s"] = perPass(s("xmtc.render"))
	l["xmtc.alloc_mb"] = perPass(func(k key) float64 { return a("xmtc.parse")(k) + a("xmtc.check")(k) })
	l["prepass.run_s"] = perPass(s("prepass.run"))
	l["codegen.core_s"] = perPass(core)
	l["codegen.alloc_mb"] = perPass(func(k key) float64 {
		return allocs["codegen.compile"][k] - allocs["xmtc.parse"][k] - allocs["xmtc.check"][k] -
			allocs["prepass.run"][k] - allocs["xmtc.render"][k]
	})
	l["postpass.run_s"] = perPass(s("postpass.run"))
	l["asm.assemble_s"] = perPass(s("asm.assemble"))
	l["asm.memmap_s"] = perPass(s("asm.memmap"))
	l["func.run_s"] = perPass(s("func.run"))
	l["func.alloc_mb"] = perPass(a("func.run"))
	l["toolchain.oracle_s"] = perPass(s("oracle.check"))
	l["toolchain.total_s"] = perPass(total)
	l["toolchain.unattributed_s"] = perPass(func(k key) float64 { return total(k) - layerSum(k) })
	for name, v := range t.counts {
		l[name] = v / float64(t.passes)
	}
	l["func.instrs"] = tr.instrs / float64(t.passes)
	r.reportf("traced: %d passes; per pass %.4f s total, %.4f s unattributed (%.2f %%)",
		t.passes, l["toolchain.total_s"], l["toolchain.unattributed_s"],
		100*l["toolchain.unattributed_s"]/l["toolchain.total_s"])
	return nil
}

func (t *tcInstance) close() error { return nil }
