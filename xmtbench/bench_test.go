package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{500, 500}, {990, 990}, {999, 999}, {1000, 1000}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %s) = %v, want %v", pctName(c.p), got, c.want)
		}
	}
	// Nearest rank on a small odd sample: the median is the middle value,
	// p90 of 5 samples is the largest.
	if got := percentile([]float64{1, 2, 3, 4, 5}, 500); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 900); got != 5 {
		t.Errorf("p90 of 1..5 = %v, want 5", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10000, 999}, // p99.9 is rank 9990: 10 beyond
		{9999, 990},  // p99.9 is rank 9990: 9 beyond
		{1000, 990},  // p99 is rank 990: 10 beyond
		{999, 950},
		{200, 950},
		{199, 900},
		{100, 900},
		{40, 750},
		{19, 500}, // nothing higher qualifies: the median
	} {
		if got := tailFor(c.n, 999); got != c.want {
			t.Errorf("tailFor(%d) = %s, want %s", c.n, pctName(got), pctName(c.want))
		}
	}
	if got := tailFor(10000, 990); got != 990 {
		t.Errorf("tailFor(10000) capped at p99 = %s", pctName(got))
	}
	// summarize works on a copy and reports the count.
	xs := []float64{5, 1, 4, 2, 3}
	d := summarize(xs)
	if d.n != 5 || d.p50 != 3 || xs[0] != 5 {
		t.Errorf("summarize = %+v, input now %v", d, xs)
	}
}

// fakeClock advances only when the generator sleeps or a test stalls it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPaceChargesStallsToLaterRequests(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(0, 0)
	c := &fakeClock{t: start}
	var dues []time.Duration
	for i := 0; i < 8; i++ {
		dues = append(dues, time.Duration(i)*10*ms)
	}
	latency := make([]time.Duration, len(dues))
	sent := make([]time.Duration, len(dues))
	lags := pace(start, dues, c, func(i int, due time.Time) {
		sent[i] = c.Now().Sub(start)
		if i == 2 {
			c.t = c.t.Add(35 * ms) // the generator is blocked for 35 ms
		}
		latency[i] = c.Now().Sub(due) // instant service, timed from due
	})
	wantLat := []time.Duration{0, 0, 35 * ms, 25 * ms, 15 * ms, 5 * ms, 0, 0}
	wantLag := []time.Duration{0, 0, 0, 25 * ms, 15 * ms, 5 * ms, 0, 0}
	if !reflect.DeepEqual(latency, wantLat) {
		t.Errorf("latencies from due time = %v, want %v", latency, wantLat)
	}
	if !reflect.DeepEqual(lags, wantLag) {
		t.Errorf("generator lateness = %v, want %v", lags, wantLag)
	}
	// Requests 3..5 were sent late, all at the end of the stall; timed from
	// when they were sent they would show no delay at all.
	for i := 3; i <= 5; i++ {
		if sent[i] != 55*ms {
			t.Errorf("request %d sent at %v, want 55ms", i, sent[i])
		}
	}
	// Never early: the generator waits for each due time.
	if sent[6] != 60*ms || sent[7] != 70*ms {
		t.Errorf("requests 6, 7 sent at %v, %v; want 60ms, 70ms", sent[6], sent[7])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},  // overlaps a: union 10..50
		{name: "c", parent: 0, start: 90, end: 120}, // only 90..100 lies inside root
		{name: "a1", parent: 1, start: 12, end: 18},
		{name: "leaf", parent: -1, start: 200, end: 205},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.setRound(3)
	err := r.do("outer", 7, false, func() error {
		return r.do("inner", 7, true, func() error {
			_ = make([]byte, 1<<20)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.snapshot()
	if len(s) != 2 || s[0].parent != -1 || s[1].parent != 0 || s[1].round != 3 || s[1].op != 7 {
		t.Fatalf("spans = %+v", s)
	}
	if s[1].start < s[0].start || s[1].end > s[0].end {
		t.Errorf("inner %d..%d outside outer %d..%d", s[1].start, s[1].end, s[0].start, s[0].end)
	}
	if s[1].alloc < 1<<20 {
		t.Errorf("inner allocated %d bytes, want at least 1 MiB", s[1].alloc)
	}
	// A nil recorder runs the call untraced.
	var nilRec *recorder
	called := false
	if err := nilRec.do("x", 0, true, func() error { called = true; return nil }); err != nil || !called {
		t.Errorf("nil recorder: called=%v err=%v", called, err)
	}
}
