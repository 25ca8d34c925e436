package main

import (
	"math"
	"sync"
	"time"
)

// kind classifies an operation as a write or a read.
type kind int

const (
	write kind = iota
	read
)

// op is one generated operation. Operations of one lane run in order on
// one sender, which is how a device's batches stay in sequence.
type op struct {
	lane int
	// due is when the open loop sends the op, from the phase start.
	due  time.Duration
	kind kind
	// last marks the final op of a device stream: after the closed-loop
	// deadline a lane still runs up to the next last op, so every device
	// it started is sent whole.
	last bool
	// do sends the op and checks its answer.
	do func() error
	// wrong, when set, is raised by the output checks after the run if
	// the op's answer was wrong; its latency then counts as failed.
	wrong *bool
}

// sample is one timed operation: when it was due, from the phase start,
// and its latency in ms (+Inf when it failed).
type sample struct {
	due   time.Duration
	kind  kind
	ms    float64
	wrong *bool
}

// latency is the sample's latency in ms, +Inf when the op failed or the
// checks after the run found its answer wrong: a wrong answer misses
// every latency limit.
func (s sample) latency() float64 {
	if s.wrong != nil && *s.wrong {
		return math.Inf(1)
	}
	return s.ms
}

// phase is what one load phase measured.
type phase struct {
	samples []sample
	// late holds, for the open loop, how many ms after the op's due time
	// the generator sent it while its sender was free.
	late      []float64
	attempted int
	failed    int
	firstErr  error
	// counted is how many closed-loop ops started before the deadline;
	// elapsed runs until the last of them finished.
	counted   int
	elapsed   time.Duration
	exhausted bool
}

// rate is the closed loop's operations per second.
func (p *phase) rate() float64 { return ratio(float64(p.counted), p.elapsed.Seconds()) }

// lat returns the latencies of ops of kind k.
func (p *phase) lat(k kind) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.kind == k {
			out = append(out, s.latency())
		}
	}
	return out
}

func (p *phase) all() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.latency()
	}
	return out
}

func (p *phase) merge(o *phase) {
	p.samples = append(p.samples, o.samples...)
	p.late = append(p.late, o.late...)
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	p.counted += o.counted
	p.elapsed = max(p.elapsed, o.elapsed)
	p.exhausted = p.exhausted || o.exhausted
}

// record runs o and accounts its latency from ref, which is due after
// the phase start.
func (p *phase) record(o op, ref time.Time, due time.Duration, timed bool) {
	err := o.do()
	lat := float64(time.Since(ref)) / 1e6
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		lat = math.Inf(1)
	}
	if timed {
		p.samples = append(p.samples, sample{due: due, kind: o.kind, ms: lat, wrong: o.wrong})
	}
}

// byLane splits ops into per-lane lists, keeping their order.
func byLane(ops []op, lanes int) [][]op {
	out := make([][]op, lanes)
	for _, o := range ops {
		out[o.lane%lanes] = append(out[o.lane%lanes], o)
	}
	return out
}

// runLanes runs fn once per lane on its own goroutine and merges the
// results.
func runLanes(lanes [][]op, fn func(ops []op) *phase) *phase {
	total := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ops := range lanes {
		wg.Add(1)
		go func(ops []op) {
			defer wg.Done()
			p := fn(ops)
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}(ops)
	}
	wg.Wait()
	return total
}

// openLoop sends ops at their due times from one sender per lane. An op
// whose sender is still busy waits, and its latency is timed from its
// due time, so a stall shows in every op queued behind it.
func openLoop(ops []op, lanes int) *phase {
	start := time.Now()
	return runLanes(byLane(ops, lanes), func(ops []op) *phase {
		p := &phase{}
		var free time.Duration // when the sender finished its previous op
		for _, o := range ops {
			if wait := o.due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Since(start)
			p.late = append(p.late, float64(sent-max(o.due, free))/1e6)
			p.record(o, start.Add(o.due), o.due, true)
			free = time.Since(start)

		}
		p.elapsed = free
		return p
	})
}

// closedLoop runs each lane's ops back to back until dur has passed, then
// finishes the device stream in flight untimed. It reports how many ops
// started before the deadline and when the last of them finished.
func closedLoop(lanes [][]op, dur time.Duration) *phase {
	start := time.Now()
	return runLanes(lanes, func(ops []op) *phase {
		p := &phase{}
		i := 0
		for ; i < len(ops) && time.Since(start) < dur; i++ {
			p.record(ops[i], time.Now(), time.Since(start), true)
			p.counted++
			p.elapsed = time.Since(start)
		}
		p.exhausted = i == len(ops)
		for ; i > 0 && i < len(ops) && !ops[i-1].last; i++ {
			p.record(ops[i], time.Now(), 0, false)
		}
		return p
	})
}
