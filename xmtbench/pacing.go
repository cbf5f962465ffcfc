package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// simulated one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace is the open-loop generator: it calls send(i, due) for every
// arrival in order, each no earlier than start+dues[i], whether or not
// earlier requests have finished, and returns how late each call was
// made. Callees time their request from due, not from when send ran, so a
// stall in the generator is charged to every request it delayed.
func pace(start time.Time, dues []time.Duration, c clock, send func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(dues))
	for i, d := range dues {
		due := start.Add(d)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		lags[i] = c.Now().Sub(due)
		send(i, due)
	}
	return lags
}
