package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The load model: independent users, so an open loop. Arrivals are a
// Poisson process whose times, keys and values all come from the run's
// seed before the program starts; the generator then releases each
// operation at its due time from one goroutine, however the system is
// coping. Every operation is timed from when it was due, so a stall also
// charges the operations queued behind it, and the generator reports how
// late it ran.

// arrivals returns the due times of a Poisson process of the given rate
// over [from, until), in order.
func arrivals(rng *rand.Rand, rate float64, from, until time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(from)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if t >= float64(until) {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// quantile is a latency percentile with the number of samples it rests on.
type quantile struct {
	Q     float64 // the percentile actually reported, in (0, 1)
	Value float64
	N     int // samples
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile of xs (nearest rank), lowered to the
// highest percentile that still has minBeyond samples beyond it when xs
// is too small for q. The median is always reported as asked. xs is
// sorted in place.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Q: q, Value: math.NaN()}
	}
	if q > 0.5 {
		if most := 1 - float64(minBeyond)/float64(n); q > most {
			q = math.Max(most, 0.5)
		}
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return quantile{Q: q, Value: xs[i], N: n}
}

// median is the 0.5 percentile's value, NaN for no samples.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// windowTail is the median, over consecutive windows of the given length,
// of each window's q-percentile: one stall moves one window, not the
// whole run's figure. points are (due time, latency) pairs in due order;
// a window contributes once it holds enough samples for q (see
// percentile). It returns the median and the samples behind it.
func windowTail(points [][2]float64, window, q float64) quantile {
	var tails, cur []float64
	var used int
	var start float64
	flush := func() {
		if len(cur) > 0 && float64(len(cur))*(1-q) >= minBeyond {
			tails = append(tails, percentile(cur, q).Value)
			used += len(cur)
		}
		cur = cur[:0]
	}
	for i, p := range points {
		if i == 0 || p[0] >= start+window {
			flush()
			start = p[0]
		}
		cur = append(cur, p[1])
	}
	flush()
	return quantile{Q: q, Value: median(tails), N: used}
}
