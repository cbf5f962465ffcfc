package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"xmtgo/internal/obs"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name   string
	op     int    // op id: spans of one op share it
	round  int    // round (corpus pass, simulation round) the op belongs to
	job    string // Chrome thread label; "" means "op<op>"
	group  string // Chrome process label; "" means the workload
	parent int    // index of the enclosing span, -1 for a root
	start  int64  // ns since the recorder's epoch
	end    int64
	alloc  int64 // heap bytes allocated inside the span, when measured
}

// recorder keeps the benchmark's spans in memory; they are written out
// once the traced phase ends. A nil recorder records nothing, which is how
// the untraced phase runs the same code with tracing off.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int // stack of open spans (single-goroutine callers)
	round int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// setRound tags the spans that follow with a round number.
func (r *recorder) setRound(n int) {
	if r != nil {
		r.round = n
	}
}

// do runs fn inside a span named name, nested in the innermost span still
// open. With alloc set it records the heap bytes fn allocated; reading them
// stops the world, so the reading is taken outside the span's interval. Only
// one goroutine may use do at a time.
func (r *recorder) do(name string, op int, alloc bool, fn func() error) error {
	if r == nil {
		return fn()
	}
	var ms runtime.MemStats
	if alloc {
		runtime.ReadMemStats(&ms)
	}
	before := ms.TotalAlloc
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := r.add(span{name: name, op: op, parent: parent, start: r.now()})
	r.open = append(r.open, id)
	err := fn()
	end := r.now()
	r.open = r.open[:len(r.open)-1]
	var alloced int64
	if alloc {
		runtime.ReadMemStats(&ms)
		alloced = int64(ms.TotalAlloc - before)
	}
	r.mu.Lock()
	r.spans[id].end = end
	r.spans[id].alloc = alloced
	r.mu.Unlock()
	return err
}

// add records a finished span and returns its index; safe for concurrent
// use.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.round = r.round
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Overlapping children are counted once,
// and a child's time outside its parent is not subtracted.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// roundSums adds up, per round, the self time (seconds) and allocated bytes
// of the spans named name.
func roundSums(spans []span, self []int64, name string) (secs, bytes map[int]float64) {
	secs, bytes = map[int]float64{}, map[int]float64{}
	for i, s := range spans {
		if s.name == name {
			secs[s.round] += float64(self[i]) / 1e9
			bytes[s.round] += float64(s.alloc)
		}
	}
	return secs, bytes
}

// medianOf returns the median of a per-round map's values.
func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return median(xs)
}

// writeChrome writes the recorded spans, plus extra spans already on the
// recorder's clock, as Chrome trace-event JSON through the repository's
// one trace writer (obs.WriteChrome). Each op is one thread; a child span
// names its parent in its detail.
func (r *recorder) writeChrome(path, workload string, extra []obs.Span) error {
	spans := r.snapshot()
	out := make([]obs.Span, 0, len(spans)+len(extra))
	for _, s := range spans {
		job, group, detail := s.job, s.group, ""
		if job == "" {
			job = fmt.Sprintf("op%d", s.op)
		}
		if group == "" {
			group = workload
		}
		if s.parent >= 0 {
			detail = "parent=" + spans[s.parent].name
		}
		out = append(out, obs.Span{Job: job, Tenant: group, Name: s.name,
			StartNs: s.start, DurNs: s.end - s.start, Detail: detail})
	}
	out = append(out, extra...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChrome(w, out, 0); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
