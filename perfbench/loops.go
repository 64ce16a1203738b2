package main

import (
	"sync"
	"time"
)

// closedLoop runs clients that each send their next request only after
// the previous one completes. Request indices come from one sequence;
// sending stops at the first index that starts a new pass of passLen
// requests once window has elapsed, so every run sends whole passes. It
// returns how many requests were sent.
func closedLoop(clients, passLen int, window time.Duration, do func(k int)) int {
	var mu sync.Mutex
	next, stopped := 0, false
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next%passLen == 0 && next > 0 && time.Since(start) >= window) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, ok := take(); ok; k, ok = take() {
				do(k)
			}
		}()
	}
	wg.Wait()
	return next
}

// scheduled is one open-loop operation's timing: when it was due, when a
// connection actually started it, and when it completed.
type scheduled struct {
	due, sent, done time.Time
}

// latency is the operation's time from when it was due, so a stall that
// delays later sends counts against them.
func (s scheduled) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator sent the operation.
func (s scheduled) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends operation j at start + j·interval regardless of how
// earlier ones fare, over at most conns concurrent connections: an
// operation due while every connection is busy waits for one, and that
// wait is part of its latency. Sending stops at the first operation that
// starts a new pass of passLen whose due time is window or more after
// start, so the operation count depends only on the schedule.
func openLoop(start time.Time, interval, window time.Duration, passLen, conns int, do func(j int)) []scheduled {
	type job struct {
		j   int
		due time.Time
	}
	n := openLoopLen(interval, window, passLen)
	out := make([]scheduled, n)
	queue := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range queue {
				sent := time.Now()
				do(jb.j)
				out[jb.j] = scheduled{due: jb.due, sent: sent, done: time.Now()}
			}
		}()
	}
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * interval)
		time.Sleep(time.Until(due))
		queue <- job{j, due}
	}
	close(queue)
	wg.Wait()
	return out
}

// openLoopLen is how many operations openLoop sends: the first multiple
// of passLen whose schedule reaches window.
func openLoopLen(interval, window time.Duration, passLen int) int {
	n := 0
	for n%passLen != 0 || time.Duration(n)*interval < window {
		n++
	}
	return n
}
