package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/experiment/sched"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/simrand"
	"repro/internal/sysserver"
)

const (
	// simMinDefense is the least market share, in percent, on which each
	// §VII defense must hold in a sweep's fleet-wide row.
	simMinDefense = 98.0
	// simSeedStride is the fleet sweep's per-device seed stride; the
	// traced rebuild seeds device i as the sweep does.
	simSeedStride = 7919
	// The traced rebuild runs the sweep's Fig. 6 attack: D at 0.9× the
	// device's bound for 6 s, then 5 s to settle.
	simAttackFrac   = 0.9
	simAttackDur    = 6 * time.Second
	simAttackSettle = 5 * time.Second
	// simrandBatch calls of simrand.New make one timing sample.
	simrandBatch   = 20
	simrandSamples = 200
	// simWarmDevices is the size of the warm-up sweep.
	simWarmDevices = 100
	// After each plain sweep come simJournaled journaled sweeps of
	// simJournalSize devices, each followed by a resume. The 98% market
	// check applies to the full-size plain sweeps: in a 100-device
	// population one device can carry over 2% of the market.
	simJournaled   = 3
	simJournalSize = 100
)

// simBench is the sim-fleet workload: repeated sweeps of the registered
// fleet experiment, each on a newly generated population, exactly as
// `animbench -exp fleet` runs them. A cycle is a plain sweep, then
// journaled sweeps (`animbench -journal`: every device's result fsynced),
// each followed by a resume of its complete journal.
type simBench struct {
	cfg runCfg
	// pop is the first sweep's population; the traced run rebuilds its
	// devices' attack runs from public parts.
	pop *fleet.Fleet
}

// simFleetSeed is sweep i's population seed. It is never 0, which the
// experiment reads as "use the default".
func simFleetSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

func setupSim(cfg runCfg) (bench, error) {
	b := &simBench{cfg: cfg}
	var err error
	if b.pop, err = fleet.Generate(cfg.size, simFleetSeed(cfg.seed, 0)); err != nil {
		return nil, err
	}
	// Warm-up: one untimed sweep of a smaller fleet pays lazy start-up
	// before timing.
	exp, err := b.newExp(-1, min(cfg.size, simWarmDevices))
	if err != nil {
		return nil, err
	}
	if _, err := b.sweep(exp, nil); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return b, nil
}

func (b *simBench) close() {}

// newExp builds the fleet experiment for sweep i's population of n
// devices.
func (b *simBench) newExp(i, n int) (experiment.Experiment, error) {
	return experiment.New("fleet", experiment.Config{FleetSize: n, FleetSeed: simFleetSeed(b.cfg.seed, i)})
}

func (b *simBench) sweep(exp experiment.Experiment, j *experiment.Journal) (experiment.Output, error) {
	return experiment.Run(exp, experiment.RunOpts{Seed: b.cfg.seed, Workers: b.cfg.lanes, Journal: j})
}

// tracedSweep is sweep with Collect and Render timed apart and the
// allocation delta around them recorded per device.
func (b *simBench) tracedSweep(exp experiment.Experiment, alloc *[2][]float64) (experiment.Output, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	results, err := experiment.Collect(exp, experiment.RunOpts{Seed: b.cfg.seed, Workers: b.cfg.lanes})
	if err != nil {
		return experiment.Output{}, err
	}
	b.cfg.timer.since("experiment.collect_ms", t, "ms")
	t = time.Now()
	out, err := exp.Render(results)
	b.cfg.timer.since("experiment.render_ms", t, "ms")
	runtime.ReadMemStats(&m1)
	n := float64(b.cfg.size)
	alloc[0] = append(alloc[0], float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/n)
	alloc[1] = append(alloc[1], float64(m1.Mallocs-m0.Mallocs)/n)
	return out, err
}

func (b *simBench) run() (*outcome, error) {
	o := &outcome{e2e: metrics{}}
	var plain, journaled, resumed []float64
	var plainSecs float64
	var alloc [2][]float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < b.cfg.seconds; k++ {
		i := k * (1 + simJournaled)
		exp, err := b.newExp(i, b.cfg.size)
		if err != nil {
			return nil, err
		}
		if b.cfg.traced() {
			t := time.Now()
			if _, err := fleet.Generate(b.cfg.size, simFleetSeed(b.cfg.seed, i)); err != nil {
				return nil, err
			}
			b.cfg.timer.since("fleet.generate_ms", t, "ms")
		}
		t := time.Now()
		var out experiment.Output
		if b.cfg.traced() {
			out, err = b.tracedSweep(exp, &alloc)
		} else {
			out, err = b.sweep(exp, nil)
		}
		d := time.Since(t)
		o.check(errors.Join(err, checkSweep(out)))
		plain = append(plain, float64(d)/1e6)
		plainSecs += d.Seconds()
		if k == 0 {
			sum := sha256.Sum256([]byte(out.Text))
			o.info = append(o.info, "sim-fleet report digest (first sweep): "+hex.EncodeToString(sum[:8]))
		}
		for j := 1; j <= simJournaled; j++ {
			w, r, err := b.journaledSweep(i + j)
			journaled = append(journaled, w)
			resumed = append(resumed, r)
			o.check(err)
		}
	}

	rate := float64(len(plain)*b.cfg.size) / plainSecs
	o.e2e.set("devices_per_s", rate, "1/s")
	o.e2e.set("peak_per_s", rate, "1/s")
	o.e2e.set("lat_p50_ms", quantile(plain, 0.5), "ms")
	o.e2e.set("lat_p99_ms", quantile(plain, 0.99), "ms")
	o.e2e.set("write_p50_ms", median(journaled), "ms")
	o.e2e.set("read_p50_ms", median(resumed), "ms")
	if b.cfg.traced() {
		o.layer = metrics{}
		b.layers(o, alloc)
	}
	return o, nil
}

// journaledSweep runs sweep i of a simJournalSize-device population into
// a fresh journal, then resumes from the complete journal, and returns
// both wall times in ms. The resume must replay every device and render
// the same report.
func (b *simBench) journaledSweep(i int) (write, resume float64, err error) {
	n := min(b.cfg.size, simJournalSize)
	exp, err := b.newExp(i, n)
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(b.cfg.dir, "sweep-"+strconv.Itoa(i)+".journal")
	open := func() (*experiment.Journal, error) {
		return experiment.OpenJournal(path, experiment.JournalNameOf(exp), b.cfg.seed, exp.Params())
	}
	t := time.Now()
	j, err := open()
	if err != nil {
		return 0, 0, err
	}
	wrote, err := b.sweep(exp, j)
	j.Close()
	write = float64(time.Since(t)) / 1e6
	if err == nil && wrote.Skipped != 0 {
		err = fmt.Errorf("sim-fleet: %d devices skipped", wrote.Skipped)
	}
	if err != nil {
		return write, 0, err
	}

	t = time.Now()
	if j, err = open(); err != nil {
		return write, 0, err
	}
	replayed := j.Done()
	again, err := b.sweep(exp, j)
	err = errors.Join(err, j.Finish())
	resume = float64(time.Since(t)) / 1e6
	if err == nil && (replayed != n || again.Text != wrote.Text) {
		err = fmt.Errorf("sim-fleet: resume replayed %d of %d devices; report identical: %v", replayed, n, again.Text == wrote.Text)
	}
	return write, resume, err
}

// checkSweep checks a sweep's report: no device skipped, and both §VII
// defenses holding on at least simMinDefense percent of the market.
func checkSweep(out experiment.Output) error {
	if out.Skipped != 0 {
		return fmt.Errorf("sim-fleet: %d devices skipped", out.Skipped)
	}
	for _, line := range strings.Split(out.Text, "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || f[0] != "fleet-wide" {
			continue
		}
		ipc := strings.Split(f[6], "/")
		if len(ipc) != 2 {
			break
		}
		for _, cell := range []string{f[5], ipc[0], ipc[1]} {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				return fmt.Errorf("sim-fleet: fleet-wide row %q: %w", line, err)
			}
			if v < simMinDefense {
				return fmt.Errorf("sim-fleet: a defense holds on %.1f%% < %.0f%% of the market: %q", v, simMinDefense, line)
			}
		}
		return nil
	}
	return fmt.Errorf("sim-fleet: report has no fleet-wide row")
}

// layers fills the sim plane's per-layer metrics: the sweep timings
// recorded in run, then a rebuild of every device of the first
// population's attack run from public parts, once on lanes workers and
// once on one.
func (b *simBench) layers(o *outcome, alloc [2][]float64) {
	tm, m := b.cfg.timer, o.layer
	entries := b.pop.Entries()
	var busy atomic.Int64
	events, calls, attackNS := make([]int64, len(entries)), make([]int64, len(entries)), make([]int64, len(entries))
	rebuild := func(workers int, tmr *spanTimer) (time.Duration, error) {
		start := time.Now()
		err := sched.Run(context.Background(), workers, len(entries), func(i int) error {
			t := time.Now()
			ev, n, ns, err := rebuildAttack(entries[i], b.cfg.seed+int64(i)*simSeedStride, tmr)
			events[i], calls[i], attackNS[i] = ev, n, ns
			busy.Add(int64(time.Since(t)))
			return err
		})
		return time.Since(start), err
	}
	wallN, err := rebuild(b.cfg.lanes, tm)
	o.check(err)
	busyN := busy.Load()
	wall1, err := rebuild(1, nil)
	o.check(err)

	var evSum, callSum, nsSum int64
	for i := range entries {
		evSum += events[i]
		callSum += calls[i]
		nsSum += attackNS[i]
	}
	for s := 0; s < simrandSamples; s++ {
		t := time.Now()
		for k := 0; k < simrandBatch; k++ {
			simrand.New(int64(s*simrandBatch + k))
		}
		tm.observe("simrand.new_ns", float64(time.Since(t))/simrandBatch)
	}

	n := float64(len(entries))
	m.timing("fleet.generate_ms", tm.get("fleet.generate_ms"), "ms")
	m.timing("experiment.collect_ms", tm.get("experiment.collect_ms"), "ms")
	m.timing("experiment.render_ms", tm.get("experiment.render_ms"), "ms")
	m.set("experiment.alloc_mb_per_device", median(alloc[0]), "MB")
	m.set("experiment.allocs_per_device", median(alloc[1]), "count")
	m.set("sched.busy_ratio", ratio(float64(busyN), float64(b.cfg.lanes)*float64(wallN)), "ratio")
	m.set("sched.speedup", ratio(float64(wall1), float64(wallN)), "ratio")
	m.timing("sysserver.assemble_us", tm.get("sysserver.assemble_us"), "us")
	m.timing("core.attack_ms", tm.get("core.attack_ms"), "ms")
	m.set("simclock.events_per_device", float64(evSum)/n, "count")
	m.set("simclock.ns_per_event", ratio(float64(nsSum), float64(evSum)), "ns")
	m.set("binder.calls_per_device", float64(callSum)/n, "count")
	m.timing("simrand.new_ns", tm.get("simrand.new_ns"), "ns")
}

// rebuildAttack re-runs one device's Fig. 6 attack from the sweep's
// public parts — sysserver.Assemble, core.NewOverlayAttack and
// Clock.RunFor — under the device's own fault plane. It returns the
// clock events fired, the binder transactions delivered and the attack's
// wall time in ns; tm, when set, records the assembly and attack times.
func rebuildAttack(ent fleet.Entry, seed int64, tm *spanTimer) (events, calls, attackNS int64, err error) {
	p := ent.Profile
	bound := p.PaperUpperBoundD
	if bound <= 0 {
		bound = p.ExpectedUpperBoundD()
	}
	var opts []sysserver.Option
	if !ent.Faults.Zero() {
		opts = append(opts, sysserver.WithFaults(faults.NewPlane(ent.Faults, seed)))
	}
	t := time.Now()
	st, err := sysserver.Assemble(p, seed, opts...)
	if err != nil {
		return 0, 0, 0, err
	}
	tm.since("sysserver.assemble_us", t, "us")
	st.WM.GrantOverlayPermission(experiment.AttackerApp)
	st.Bus.Observe(func(binder.Transaction) { calls++ })

	t = time.Now()
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App:    experiment.AttackerApp,
		D:      time.Duration(float64(bound) * simAttackFrac),
		Bounds: geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH)),
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if err := atk.Start(); err != nil {
		return 0, 0, 0, err
	}
	st.Clock.MustAfter(simAttackDur, "perfbench/stop", atk.Stop)
	if err := st.Clock.RunFor(simAttackDur + simAttackSettle); err != nil {
		return 0, 0, 0, err
	}
	attack := time.Since(t)
	tm.since("core.attack_ms", t, "ms")
	return int64(st.Clock.Fired()), calls, int64(attack), atk.Err()
}
