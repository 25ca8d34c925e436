// Command perfbench is the repository's benchmark: one workload per run
// on each of the three planes, with every server in-process on real
// loopback listeners. See README.md for the workloads, the metrics and
// how they relate.
//
//	perfbench --workload sim-fleet --seed 1 --seconds 15 --trace 0 [--size N] [--dir D]
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runCfg is what one set-up of a workload gets.
type runCfg struct {
	seed    int64
	size    int
	seconds float64
	// lanes is the number of load-generator senders and client
	// connections, and the sweep's worker count: one per CPU.
	lanes int
	// dir holds this set-up's stores and journals.
	dir string
	// rec and timer are nil in an untraced run.
	rec   *recorder
	timer *spanTimer
}

func (c runCfg) traced() bool { return c.rec != nil }

// outcome is what one measured run of a set-up produced.
type outcome struct {
	e2e       metrics
	layer     metrics
	attempted int
	failed    int
	firstErr  error
	// info lines are printed for the reader, not measured.
	info []string
}

// add folds operation counts, and the first error behind them, into o.
func (o *outcome) add(attempted, failed int, firstErr error) {
	o.attempted += attempted
	o.failed += failed
	if o.firstErr == nil {
		o.firstErr = firstErr
	}
}

// count folds one phase's operation counts into the outcome.
func (o *outcome) count(p *phase) { o.add(p.attempted, p.failed, p.firstErr) }

// check counts one output check as an operation, failed when err is set.
func (o *outcome) check(err error) {
	failed := 0
	if err != nil {
		failed = 1
	}
	o.add(1, failed, err)
}

// bench is a set-up workload, ready to measure.
type bench interface {
	run() (*outcome, error)
	close()
}

type workload struct {
	name string
	// plane names the per-layer metric family the workload measures.
	plane string
	// size is the default --size; sideSize is the size of the short
	// traced pass that fills a plane's per-layer metrics when another
	// plane's workload is traced. vet-mix keeps its full working set
	// there, beyond the peers' caches, so the side pass sees store hits.
	size, sideSize int
	setup          func(runCfg) (bench, error)
}

var workloads = []workload{
	{name: "sim-fleet", plane: "sim", size: 1000, sideSize: 1000, setup: setupSim},
	{name: "vet-mix", plane: "vet", size: 24000, sideSize: 24000, setup: setupVet},
	{name: "sentry-stream", plane: "sentry", size: 32000, sideSize: 5000,
		setup: func(c runCfg) (bench, error) { return setupSentry(c, false) }},
	{name: "sentry-peer-down", plane: "sentry", size: 32000, sideSize: 5000,
		setup: func(c runCfg) (bench, error) { return setupSentry(c, true) }},
}

const (
	// setupRepeats is how many times a run sets up, to report the
	// median set-up time; the last set-up is the one measured.
	setupRepeats = 3
	// sideSeconds is the length of a side pass in a traced run.
	sideSeconds = 2
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	size := fs.Int("size", 0, "workload size (0 = the workload's default; see README.md)")
	dir := fs.String("dir", ".bench_build", "directory for stores, journals and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *size < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runCfg{seed: *seed, size: *size, seconds: *seconds, lanes: runtime.NumCPU()}
	if cfg.size == 0 {
		cfg.size = w.size
	}
	runDir := filepath.Join(*dir, "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	var o *outcome
	var err error
	if *trace == 0 {
		o, err = measure(w, cfg)
	} else {
		o, err = traced(w, cfg, filepath.Join(*dir, "traces"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if o.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %v\n", w.name, o.failed, o.attempted, o.firstErr)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, line := range o.info {
		fmt.Fprintln(out, line)
	}
	ms := o.e2e
	if *trace == 1 {
		ms = o.layer
	}
	res, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(res))
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// setupOnce sets w up in its own directory under cfg.dir and times it.
func setupOnce(w workload, cfg runCfg, tag string) (bench, float64, error) {
	cfg.dir = filepath.Join(cfg.dir, tag)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	b, err := w.setup(cfg)
	// Collect set-up's garbage before timing, so every run starts the
	// timed phases from the same heap state.
	runtime.GC()
	return b, time.Since(start).Seconds(), err
}

// measure is the untraced run: set up setupRepeats times, then measure
// the last set-up.
func measure(w workload, cfg runCfg) (*outcome, error) {
	rss := sampleRSS()
	var setups []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			// Drop the previous set-up, and hand its memory back, before
			// the next one starts, so set-ups do not stack up in the
			// resident set.
			b.close()
			b = nil
			debug.FreeOSMemory()
		}
		var s float64
		var err error
		if b, s, err = setupOnce(w, cfg, "setup"+strconv.Itoa(i)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	defer b.close()
	o, err := b.run()
	if err != nil {
		return nil, err
	}
	o.e2e.set("setup_s", median(setups), "s")
	o.e2e.set("peak_rss_mb", rss.peak(), "MB")
	return o, nil
}

// traced measures half the run untraced and half traced, reports the
// difference as the tracing overhead, then fills the per-layer metrics of
// the planes the workload does not run from short traced side passes.
// Spans of the workload's traced half are written under traceDir.
func traced(w workload, cfg runCfg, traceDir string) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := measureOnce(w, half, "untraced")
	if err != nil {
		return nil, err
	}
	tr := half
	tr.rec, tr.timer = newRecorder(), newSpanTimer()
	o, err := measureOnce(w, tr, "traced")
	if err != nil {
		return nil, err
	}
	o.add(plain.attempted, plain.failed, plain.firstErr)
	for name, m := range plain.e2e {
		o.layer.set("trace.overhead."+name, o.e2e[name].Value-m.Value, m.Unit)
	}
	done := map[string]bool{w.plane: true}
	for _, side := range workloads {
		if done[side.plane] {
			continue
		}
		done[side.plane] = true
		sc := runCfg{seed: cfg.seed, size: side.sideSize, seconds: sideSeconds, lanes: cfg.lanes, dir: cfg.dir,
			rec: newRecorder(), timer: newSpanTimer()}
		so, err := measureOnce(side, sc, "side-"+side.name)
		if err != nil {
			return nil, fmt.Errorf("side pass %s: %w", side.name, err)
		}
		o.add(so.attempted, so.failed, so.firstErr)
		for k, v := range so.layer {
			if _, ok := o.layer[k]; !ok {
				o.layer[k] = v
			}
		}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.rec.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	o.info = append(o.info, "spans written to "+path)
	return o, nil
}

// measureOnce sets up once and measures.
func measureOnce(w workload, cfg runCfg, tag string) (*outcome, error) {
	b, _, err := setupOnce(w, cfg, tag)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	return b.run()
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set size from set-up to the
// end of the run. Its peak is the 99th percentile of the samples, which a
// single garbage-collection cycle's timing moves little.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the 99th percentile of its samples.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.mb, 0.99)
}

// rssMB reads the resident set size from /proc.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
