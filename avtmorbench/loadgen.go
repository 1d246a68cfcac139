package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// Open-loop load generation: a schedule of due times drawn from the
// seed, dispatched on time
// whatever the system does, with at most a fixed number of requests in
// flight. Latency is timed from when a request was due, so a stall
// shows in every request it delays.

// op is one scheduled request.
type op struct {
	at    time.Duration // due time, relative to the start of the load
	class int
	plain bool    // sent as plain HTTP to the fixed entry node
	arg   int     // picks the body or key the request uses
	x     float64 // a uniform draw in [0, 1) for per-request choices
}

// makeSchedule draws the ops of seconds of load at rps requests per
// second. The same seed always gives the same schedule. Counts are
// fixed and only order and timing are random, so seeds differ in
// coincidences, not in how much of each kind of work a run holds:
// round(rps·seconds) arrivals, the i-th due at a uniform random time
// in [i, i+1)/rps (a steady rate without Poisson bursts, whose
// clustering would make every tail latency a matter of the seed),
// exact class and plain shares in shuffled order, and per-request
// draws x spread evenly over [0, 1).
func makeSchedule(seed uint64, rps, seconds float64, weights []float64, plainShare float64) []op {
	rng := newRand(seed, "schedule")
	n := int(math.Round(rps * seconds))
	ops := make([]op, n)
	at := make([]float64, n)
	for i := range at {
		at[i] = (float64(i) + rng.Float64()) / rps
	}
	classes := spread(rng, n, weights)
	plain := spread(rng, n, []float64{1 - plainShare, plainShare})
	xs := rng.Perm(n)
	for i := range ops {
		ops[i] = op{
			at:    time.Duration(at[i] * float64(time.Second)),
			class: classes[i],
			plain: plain[i] == 1,
			arg:   rng.IntN(1 << 30),
			x:     (float64(xs[i]) + 0.5) / float64(n),
		}
	}
	return ops
}

// spreadBlock is the window within which spread shuffles labels.
const spreadBlock = 50

// spread returns n labels, label k appearing round(n·w_k/Σw) times
// (the heaviest absorbs the rounding). Smooth weighted round-robin
// deals them as evenly as the weights permit, so no seed gets a burst
// of heavy requests that another seed does not; shuffling within
// windows of spreadBlock then breaks the round-robin's period, which
// would otherwise put one class right behind another in every cycle
// for some seeds and never for others.
func spread(rng *rand.Rand, n int, weights []float64) []int {
	total := sum(weights)
	counts := make([]int, len(weights))
	left, heaviest := n, 0
	for k, w := range weights {
		counts[k] = int(math.Round(float64(n) * w / total))
		left -= counts[k]
		if w > weights[heaviest] {
			heaviest = k
		}
	}
	counts[heaviest] += left
	credit := make([]float64, len(weights))
	for k := range credit {
		credit[k] = rng.Float64() * float64(counts[k])
	}
	used := make([]int, len(weights))
	out := make([]int, n)
	for i := range out {
		best := -1
		for k, c := range counts {
			if used[k] == c {
				continue
			}
			credit[k] += float64(c)
			if best < 0 || credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= float64(n)
		used[best]++
		out[i] = best
	}
	for lo := 0; lo < n; lo += spreadBlock {
		blk := out[lo:min(lo+spreadBlock, n)]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// outcome is one request's record.
type outcome struct {
	due      time.Time
	lateness time.Duration // how late the generator itself dispatched it
	sent     time.Time     // when a worker started it
	done     time.Time
	ok       bool // answered correctly (checked now or after the load)
	refused  bool // answered 429
	rid      string
}

// latency is the request's time from due to done.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// runOpenLoop dispatches ops at their due times to inflight workers
// and returns one outcome per op, in schedule order. exec performs one
// request and fills ok, refused and rid.
func runOpenLoop(ops []op, inflight int, exec func(i int, o op, out *outcome)) []outcome {
	out := make([]outcome, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Now()
				exec(i, ops[i], o)
				o.done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i, o := range ops {
		due := start.Add(o.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].due = due
		out[i].lateness = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}
