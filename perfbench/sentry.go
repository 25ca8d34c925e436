package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/sentring"
	"repro/internal/sentry"
	"repro/internal/sentrystore"
)

const (
	// sentryRate is the open loop's fixed rate in operations per second,
	// shared by both sentry workloads. The one-peer-down ring keeps up
	// with it without a backlog: there a batch whose replica set holds
	// the dead peer sleeps through a retry backoff of 12–37 ms, and two
	// closed-loop callers reach about 165 operations per second.
	sentryRate = 60.0
	// sentryBatch is the number of records per ingest batch, the
	// repository's own sentry traffic shape: fleetload's -batch default
	// and BenchmarkRouterIngest both send 64.
	sentryBatch = 64
	// sentryReadShare of operations are GET /v1/flagged lookups. The
	// repository has no traffic source for a lookup share (fleetload
	// asks once per planted device after its replay), so a quarter is
	// an assumption. A lookup asks about the device whose batch its
	// sender just sent and is due with that batch, as a device that
	// uploads and then asks would be; its latency includes the wait for
	// the upload.
	sentryReadShare = 0.25
	// sentryWarmDevices have their whole streams sent at set-up.
	sentryWarmDevices = 64
	sentryPeers       = 3
	sentryReplicas    = 2
	// The planted attackers: one draw-and-destroy device per 50 and one
	// notification flooder per 100.
	sentryAttackerEvery = 50
	sentryFlooderEvery  = 100
)

// sentryBatchIn is one encoded ingest batch of a device's stream.
type sentryBatchIn struct {
	dev  int
	at   time.Duration // capture time of its last record
	body []byte
}

// sentryPeer is one sentryd node with its detection journal.
type sentryPeer struct {
	srv   *sentry.Server
	store *sentrystore.Store
	http  *server
}

// sentryLookup is one planned GET /v1/flagged: the device, how many of
// its batches its sender had sent before, and the answer.
type sentryLookup struct {
	dev, after int
	flagged    *bool
	// wrong is set by check when the answer was wrong.
	wrong bool
}

// sentryBench is a sentry workload: a labeled fleet's streams sent as
// wire batches through a sentring router in front of sentryPeers sentryd
// peers, with flagged lookups beside them. With down set, peer 0 is
// closed after warm-up, so batches whose replica set holds it take the
// router's dead-replica path.
type sentryBench struct {
	cfg  runCfg
	down bool
	fl   *sentry.Fleet
	// batches[d] is device d's stream, in sequence order.
	batches [][]*sentryBatchIn
	// open and closed split the devices after the warm-up ones between
	// the fixed-rate phase and the closed loop.
	open, closed []int
	peers        []*sentryPeer
	router       *sentring.Router
	front        *server
	client       *http.Client
	base         string
	lookups      []*sentryLookup
	// acked counts each device's batches the ring accepted. Only the lane
	// that owns a device writes its count.
	acked []int
	// devWrong[d] is set by check when device d's detection is wrong; its
	// batches' latencies then count as failed.
	devWrong []bool
}

func setupSentry(cfg runCfg, down bool) (bench, error) {
	b := &sentryBench{cfg: cfg, down: down}
	var err error
	b.fl, err = sentry.GenerateFleet(sentry.FleetConfig{
		Devices:      cfg.size,
		Attackers:    cfg.size / sentryAttackerEvery,
		NotifAbusers: cfg.size / sentryFlooderEvery,
		Seed:         cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	b.batches = make([][]*sentryBatchIn, len(b.fl.Devices))
	b.acked = make([]int, len(b.fl.Devices))
	b.devWrong = make([]bool, len(b.fl.Devices))
	for d, dev := range b.fl.Devices {
		for recs := dev.Records; len(recs) > 0; {
			n := min(len(recs), sentryBatch)
			body, err := sentry.EncodeBatch(recs[:n])
			if err != nil {
				return nil, err
			}
			b.batches[d] = append(b.batches[d], &sentryBatchIn{dev: d, at: recs[n-1].At, body: body})
			recs = recs[n:]
		}
		// The encoded batches are the inputs from here on; dropping the
		// records keeps the benchmark's own heap small.
		b.fl.Devices[d].Records = nil
	}
	// Split: warm-up devices, then enough for the fixed-rate phase, then
	// the rest for the closed loop.
	writes := int(sentryRate * cfg.seconds * openShare * (1 - sentryReadShare))
	d, n := sentryWarmDevices, 0
	for ; d < len(b.batches) && n < writes; d++ {
		b.open = append(b.open, d)
		n += len(b.batches[d])
	}
	for ; d < len(b.batches); d++ {
		b.closed = append(b.closed, d)
	}
	if n < writes || len(b.closed) == 0 {
		return nil, fmt.Errorf("sentry: fleet of %d devices is too small for %.0f s", cfg.size, cfg.seconds)
	}

	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	var warm []op
	for d := 0; d < sentryWarmDevices; d++ {
		for i, bt := range b.batches[d] {
			warm = append(warm, op{lane: d, last: i == len(b.batches[d])-1, do: b.ingest(bt)})
		}
	}
	if p := closedLoop(byLane(warm, cfg.lanes), time.Hour); p.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %d of %d batches failed; first: %v", p.failed, p.attempted, p.firstErr)
	}
	if down {
		b.peers[0].stop()
	}
	return b, nil
}

// start brings up the peers, their journals and the router.
func (b *sentryBench) start() error {
	var names []string
	dial := peerDialer{}
	for i := 0; i < sentryPeers; i++ {
		srv, err := sentry.NewServer(sentry.ServerConfig{})
		if err != nil {
			return err
		}
		p := &sentryPeer{srv: srv}
		b.peers = append(b.peers, p)
		dir := filepath.Join(b.cfg.dir, "sentryd-"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if p.store, err = sentrystore.Open(filepath.Join(dir, "flags.store")); err != nil {
			return err
		}
		var j sentry.Journal = sentrystore.Flagger{S: p.store, Window: srv.Engine().Config().Window}
		if b.cfg.traced() {
			j = timedJournal{j: j, tm: b.cfg.timer}
		}
		srv.Engine().SetJournal(j)
		var h http.Handler = srv
		if b.cfg.traced() {
			h = b.cfg.rec.handler("sentryd", h)
		}
		if p.http, err = serve(h); err != nil {
			return err
		}
		name := peerName("sentryd", i)
		dial[name] = p.http.addr
		names = append(names, name)
	}
	rc := sentring.Config{Peers: names, Replicas: sentryReplicas, Seed: b.cfg.seed, Transport: dial.transport()}
	if b.cfg.traced() {
		rc.Transport = &transport{rec: b.cfg.rec, name: "sentring.call", base: rc.Transport}
	}
	var err error
	if b.router, err = sentring.New(rc); err != nil {
		return err
	}
	var h http.Handler = b.router
	if b.cfg.traced() {
		h = b.cfg.rec.handler("sentring", h)
	}
	if b.front, err = serve(h); err != nil {
		return err
	}
	b.base = "http://" + b.front.addr
	b.client = newClient(b.cfg.lanes)
	return nil
}

// stop closes the peer's listener, server and journal.
func (p *sentryPeer) stop() {
	if p.http != nil {
		p.http.close()
		p.http = nil
	}
	p.srv.Close()
	if p.store != nil {
		p.store.Close()
		p.store = nil
	}
}

func (b *sentryBench) close() {
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.front != nil {
		b.front.close()
	}
	if b.router != nil {
		b.router.Close()
	}
	for _, p := range b.peers {
		p.stop()
	}
}

// timedJournal times each detection's journal append.
type timedJournal struct {
	j  sentry.Journal
	tm *spanTimer
}

func (t timedJournal) Append(d sentry.Detection) error {
	start := time.Now()
	err := t.j.Append(d)
	t.tm.since("sentrystore.put_ms", start, "ms")
	return err
}

func (b *sentryBench) ingest(bt *sentryBatchIn) func() error {
	u := b.base + "/v1/ingest?device=" + url.QueryEscape(b.fl.Devices[bt.dev].ID)
	return func() error {
		resp, err := b.client.Post(u, "text/plain", bytes.NewReader(bt.body))
		if err != nil {
			return err
		}
		defer drain(resp)
		if err := statusErr("ingest "+b.fl.Devices[bt.dev].ID, resp); err != nil {
			return err
		}
		b.acked[bt.dev]++
		return nil
	}
}

func (b *sentryBench) lookup(l *sentryLookup) func() error {
	u := b.base + "/v1/flagged?device=" + url.QueryEscape(b.fl.Devices[l.dev].ID)
	return func() error {
		resp, err := b.client.Get(u)
		if err != nil {
			return err
		}
		defer drain(resp)
		if err := statusErr("flagged "+b.fl.Devices[l.dev].ID, resp); err != nil {
			return err
		}
		var fr sentry.FlaggedResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return fmt.Errorf("flagged: decode: %w", err)
		}
		l.flagged = &fr.Flagged
		return nil
	}
}

// streamOps turns a batch, in the order its lane sends them, into an op,
// and adds with the read share's odds a lookup of the same device after
// it. sent counts each device's batches planned so far.
func (b *sentryBench) streamOps(rng *rand.Rand, bt *sentryBatchIn, lane int, sent map[int]int) []op {
	sent[bt.dev]++
	ops := []op{{lane: lane, kind: write, do: b.ingest(bt), wrong: &b.devWrong[bt.dev]}}
	if rng.Float64() < sentryReadShare/(1-sentryReadShare) {
		l := &sentryLookup{dev: bt.dev, after: sent[bt.dev]}
		b.lookups = append(b.lookups, l)
		ops = append(ops, op{lane: lane, kind: read, do: b.lookup(l), wrong: &l.wrong})
	}
	return ops
}

func (b *sentryBench) run() (*outcome, error) {
	o := &outcome{e2e: metrics{}}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	tClosed := time.Duration(b.cfg.seconds * (1 - openShare) * float64(time.Second))
	sent := make(map[int]int)

	// Fixed-rate phase: the open devices' batches in capture-time order,
	// compressed to sentryRate operations per second.
	var openBatches []*sentryBatchIn
	for _, d := range b.open {
		openBatches = append(openBatches, b.batches[d]...)
	}
	sort.SliceStable(openBatches, func(i, j int) bool { return openBatches[i].at < openBatches[j].at })
	var openOps []op
	for _, bt := range openBatches {
		due := time.Duration(float64(len(openOps)) / sentryRate * float64(time.Second))
		for _, o := range b.streamOps(rng, bt, bt.dev, sent) {
			o.due = due
			openOps = append(openOps, o)
		}
	}
	// Closed loop: each lane sends its devices' whole streams in turn.
	lanes := make([][]op, b.cfg.lanes)
	for _, d := range b.closed {
		l := d % len(lanes)
		for _, bt := range b.batches[d] {
			lanes[l] = append(lanes[l], b.streamOps(rng, bt, l, sent)...)
		}
		if n := len(lanes[l]); n > 0 {
			lanes[l][n-1].last = true
		}
	}

	before := b.router.Snapshot()
	var mark int64
	if b.cfg.traced() {
		mark = b.cfg.rec.now()
	}
	open := openLoop(openOps, b.cfg.lanes)
	closed := closedLoop(lanes, tClosed)
	after := b.router.Snapshot()
	o.count(open)
	o.count(closed)
	if closed.exhausted {
		fmt.Fprintln(os.Stderr, "perfbench: sentry: closed loop ran out of devices; peak_per_s is a lower bound")
	}

	b.check(o)
	peak := closed.rate()
	o.e2e.set("lat_p50_ms", quantile(open.all(), 0.5), "ms")
	o.e2e.set("lat_p99_ms", quantile(open.all(), 0.99), "ms")
	o.e2e.set("write_p50_ms", median(open.lat(write)), "ms")
	o.e2e.set("read_p50_ms", median(open.lat(read)), "ms")
	o.e2e.set("peak_per_s", peak, "1/s")
	o.e2e.set("devices_per_s", peak, "1/s")
	if b.cfg.traced() {
		o.layer = metrics{}
		b.layers(o, mark, before, after, open, openBatches)
	}
	return o, nil
}

// check runs the off-clock output checks: the router's batch identities,
// the merged snapshot against the planted truth of every device sent, and
// each lookup against a reference engine fed the same batches.
func (b *sentryBench) check(o *outcome) {
	st := b.router.Snapshot()
	o.check(identity("sentring batches", st.Routed+st.Degraded+st.Sheds+st.Failed, st.Batches))
	o.check(identity("sentring ingest calls", st.Batches+st.BadBatches+st.RefusedBatches, st.IngestCalls))

	snap := b.router.MergedSnapshot(context.Background())
	sentTruth := &sentry.Fleet{Truth: make(map[string]string)}
	sentDevs := 0
	for d, n := range b.acked {
		if n == 0 {
			continue
		}
		sentDevs++
		id := b.fl.Devices[d].ID
		if p, ok := b.fl.Truth[id]; ok {
			sentTruth.Truth[id] = p
		}
	}
	c := sentry.Evaluate(snap, sentTruth)
	flagged := make(map[string]string, len(snap.Detections))
	for _, d := range snap.Detections {
		flagged[d.Device] = d.Pattern
	}
	for d, n := range b.acked {
		id := b.fl.Devices[d].ID
		got, isFlagged := flagged[id]
		planted, isPlanted := sentTruth.Truth[id]
		b.devWrong[d] = n > 0 && (isFlagged != isPlanted || got != planted)
	}
	o.check(identity("sentry devices reported", uint64(snap.DevicesReported), uint64(sentDevs)))
	o.check(identity("sentry device accounting", uint64(snap.Detected+snap.Clean+snap.Shed), uint64(snap.DevicesReported)))
	if wrong := c.FP + c.FN + c.PatternMismatches; wrong > 0 || !c.Perfect() {
		// Each wrong device fails an ingest already counted as attempted.
		o.add(0, max(wrong, 1), fmt.Errorf("sentry: detections against planted truth: TP %d FP %d FN %d pattern mismatches %d",
			c.TP, c.FP, c.FN, c.PatternMismatches))
	}

	// Digest of the fixed-rate devices' detections: the same for a seed
	// on every run.
	inOpen := make(map[string]bool, len(b.open))
	for _, d := range b.open {
		inOpen[b.fl.Devices[d].ID] = true
	}
	h := sha256.New()
	for _, d := range snap.Detections {
		if inOpen[d.Device] {
			fmt.Fprintf(h, "%s %s %d %d %d\n", d.Device, d.Pattern, d.At, d.Calls, d.Swaps)
		}
	}
	o.info = append(o.info, "sentry detection digest (fixed-rate devices): "+hex.EncodeToString(h.Sum(nil)[:8]))

	ref, err := sentry.NewEngine(sentry.Config{})
	if err != nil {
		o.check(err)
		return
	}
	detectAt := make(map[int]int) // device -> batches sent when it was flagged; 0 = never
	for _, l := range b.lookups {
		if _, done := detectAt[l.dev]; done {
			continue
		}
		detectAt[l.dev] = 0
		id := b.fl.Devices[l.dev].ID
		for k, bt := range b.batches[l.dev] {
			recs, err := sentry.DecodeBatch(bt.body)
			if err == nil {
				_, err = ref.Ingest(id, recs)
			}
			if err != nil {
				o.check(err)
				break
			}
			if ref.Detected(id) {
				detectAt[l.dev] = k + 1
				break
			}
		}
	}
	for _, l := range b.lookups {
		if l.flagged == nil {
			continue // not sent, or already counted failed
		}
		want := detectAt[l.dev] > 0 && detectAt[l.dev] <= l.after
		if l.wrong = *l.flagged != want; l.wrong {
			// The lookup was already counted as attempted.
			o.add(0, 1, fmt.Errorf("sentry: %s after %d batches answered flagged=%v, want %v",
				b.fl.Devices[l.dev].ID, l.after, *l.flagged, want))
		}
	}
}

// layers fills the sentry plane's per-layer metrics from the spans and
// router counters of the timed phases and from timed calls into the wire
// decoder and a fresh engine fed the fixed-rate phase's own batches.
func (b *sentryBench) layers(o *outcome, mark int64, before, after sentring.Stats, open *phase, openBatches []*sentryBatchIn) {
	m, tm := o.layer, b.cfg.timer
	var spans []span
	var flagged []float64
	for _, s := range b.cfg.rec.snapshot() {
		if s.Start < mark {
			continue
		}
		spans = append(spans, s)
		if s.Name == "sentring /v1/flagged" {
			flagged = append(flagged, float64(s.dur())/1e6)
		}
	}
	self, calls, serves, net := hopTimes(spans, "sentring /v1/ingest", "sentring.call /v1/ingest", "sentryd /v1/ingest")
	m.timing("sentring.self_ms", self, "ms")
	m.timing("sentring.peer_call_ms", calls, "ms")
	m.timing("sentring.flagged_ms", flagged, "ms")
	m.timing("sentry.serve_ms", serves, "ms")
	m.timing("sentry.net_ms", net, "ms")

	batches := float64(after.Batches - before.Batches)
	m.set("sentring.retries_per_batch", ratio(float64(after.Retries-before.Retries), batches), "ratio")
	m.set("sentring.acks_per_batch", ratio(float64(after.Acks-before.Acks), batches), "ratio")
	m.set("sentring.peer_errs_per_batch", ratio(float64(after.PeerErrs-before.PeerErrs), batches), "ratio")
	m.set("sentring.degraded_ratio", ratio(float64(after.Degraded-before.Degraded), batches), "ratio")

	eng, err := sentry.NewEngine(sentry.Config{})
	o.check(err)
	for _, bt := range openBatches {
		t := time.Now()
		recs, err := sentry.DecodeBatch(bt.body)
		tm.since("sentry.decode_us", t, "us")
		if err != nil || eng == nil {
			o.check(err)
			continue
		}
		t = time.Now()
		_, err = eng.Ingest(b.fl.Devices[bt.dev].ID, recs)
		tm.since("sentry.ingest_us", t, "us")
		o.check(err)
	}
	m.timing("sentry.decode_us", tm.get("sentry.decode_us"), "us")
	m.timing("sentry.ingest_us", tm.get("sentry.ingest_us"), "us")
	m.timing("sentrystore.put_ms", tm.get("sentrystore.put_ms"), "ms")
	m.set("loadgen.late_p99_ms", quantile(open.late, 0.99), "ms")
}
