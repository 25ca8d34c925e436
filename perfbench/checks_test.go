package main

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// small returns a run configuration for a short run in a test directory.
func small(t *testing.T, size int) runCfg {
	return runCfg{seed: 3, size: size, seconds: 0.5, lanes: runtime.NumCPU(), dir: t.TempDir()}
}

func TestSimCheckCountsSkippedDevicesAndWeakDefenses(t *testing.T) {
	row := func(notif, ipc string) string {
		return "  family ...\n  fleet-wide    10  100.00%     202ms    39.7%  " + notif + "  " + ipc + "\n"
	}
	for _, tc := range []struct {
		name string
		out  experiment.Output
		ok   bool
	}{
		{"healthy", experiment.Output{Text: row("100.0%", "99.0%/98.5%")}, true},
		{"skipped device", experiment.Output{Text: row("100.0%", "100.0%/100.0%"), Skipped: 1}, false},
		{"notification defense below 98%", experiment.Output{Text: row("97.9%", "100.0%/100.0%")}, false},
		{"ipc termination below 98%", experiment.Output{Text: row("100.0%", "100.0%/90.0%")}, false},
		{"no fleet-wide row", experiment.Output{Text: "  stock  10\n"}, false},
	} {
		o := &outcome{}
		o.check(checkSweep(tc.out))
		if failed := o.failed == 1; failed == tc.ok {
			t.Errorf("%s: failed %d of %d (err %v)", tc.name, o.failed, o.attempted, o.firstErr)
		}
	}
}

func TestSimRunIsCorrect(t *testing.T) {
	b, err := setupSim(small(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	o, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.attempted < 3 {
		t.Fatalf("failed %d of %d: %v", o.failed, o.attempted, o.firstErr)
	}
}

func TestVetChecksCountWrongVerdictsAndBrokenIdentities(t *testing.T) {
	bb, err := setupVet(small(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*vetBench)
	defer b.close()
	o, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("clean run failed %d of %d: %v", o.failed, o.attempted, o.firstErr)
	}

	// A wrong verdict: one answered Core no longer matches the analysis.
	var answered *vetOp
	for _, v := range b.openPlan {
		if v.core != nil {
			answered = v
			break
		}
	}
	if answered == nil {
		t.Fatal("no vet answered")
	}
	answered.core = []byte(strings.Replace(string(answered.core), `"allow":`, `"allow":!`, 1))
	o = &outcome{}
	b.checkVerdicts(o, b.openPlan)
	if o.failed != 1 {
		t.Errorf("wrong verdict: failed %d, want 1", o.failed)
	}
	if !answered.wrong {
		t.Error("wrong verdict: its latency is not marked failed")
	}

	// A broken router identity: one request counted but never classified.
	o = &outcome{}
	b.checkIdentities(o)
	if o.failed != 0 {
		t.Fatalf("identities broken before planting: %v", o.firstErr)
	}
	b.router.Metrics().Requests.Add(1)
	b.checkIdentities(o)
	if o.failed != 1 {
		t.Errorf("broken identity: failed %d, want 1", o.failed)
	}
}

func TestSentryChecksCountDetectionAndLookupErrors(t *testing.T) {
	for _, down := range []bool{false, true} {
		cfg := small(t, 600)
		cfg.seconds = 1
		bb, err := setupSentry(cfg, down)
		if err != nil {
			t.Fatal(err)
		}
		b := bb.(*sentryBench)
		o, err := b.run()
		if err != nil {
			b.close()
			t.Fatal(err)
		}
		if o.failed != 0 {
			b.close()
			t.Fatalf("down=%v: clean run failed %d of %d: %v", down, o.failed, o.attempted, o.firstErr)
		}
		recheck := func(what string, plant, undo func()) {
			t.Helper()
			plant()
			o := &outcome{}
			b.check(o)
			undo()
			if o.failed < 1 {
				t.Errorf("down=%v: %s: not counted as a failure", down, what)
			}
		}

		// Find a detected planted attacker and a benign device, both sent.
		var attacker, benign string
		var attackerDev, benignDev int
		for d, n := range b.acked {
			id := b.fl.Devices[d].ID
			if _, planted := b.fl.Truth[id]; n > 0 && planted && attacker == "" {
				attacker, attackerDev = id, d
			} else if n > 0 && !planted && benign == "" {
				benign, benignDev = id, d
			}
		}
		if attacker == "" || benign == "" {
			b.close()
			t.Fatalf("down=%v: no sent attacker (%q) or benign device (%q)", down, attacker, benign)
		}
		pattern := b.fl.Truth[attacker]
		// A wrong device's batches, and a wrong lookup, miss every
		// latency limit.
		marked := func(what string, wrong bool) {
			t.Helper()
			if !wrong {
				t.Errorf("down=%v: %s: latency not marked failed", down, what)
			}
		}
		recheck("extra detection", func() { delete(b.fl.Truth, attacker) }, func() { b.fl.Truth[attacker] = pattern })
		marked("extra detection", b.devWrong[attackerDev])
		recheck("missed detection", func() { b.fl.Truth[benign] = pattern }, func() { delete(b.fl.Truth, benign) })
		marked("missed detection", b.devWrong[benignDev] && !b.devWrong[attackerDev])

		var l *sentryLookup
		for _, x := range b.lookups {
			if x.flagged != nil {
				l = x
				break
			}
		}
		if l == nil {
			b.close()
			t.Fatalf("down=%v: no lookup answered", down)
		}
		recheck("wrong lookup answer", func() { *l.flagged = !*l.flagged }, func() { *l.flagged = !*l.flagged })
		marked("wrong lookup answer", l.wrong)
		recheck("broken batch identity", func() { b.router.Metrics().Batches.Add(1) }, func() { b.router.Metrics().Batches.Add(^uint64(0)) })
		b.close()
	}
}
