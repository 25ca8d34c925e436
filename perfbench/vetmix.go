package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/appstore"
	"repro/internal/defense"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
	"repro/internal/vetring"
	"repro/internal/vetstore"
)

const (
	// vetRate is the open loop's fixed rate in vets per second, about a
	// sixth of what the ring sustains on two CPUs.
	vetRate = 1000.0
	// vetWriteShare of operations vet a first-seen app: analysis, cache
	// fill and an fsynced store append on its primary peer. The rest
	// repeat apps already sent, Zipf-skewed.
	vetWriteShare = 0.1
	vetZipfS      = 1.1
	vetPeers      = 3
	vetReplicas   = 2
	vetTier       = staticanalysis.Tier2
	// vetClosedMax bounds the closed loop's rate in vets per second; it
	// sizes the inputs the closed loop may use.
	vetClosedMax = 12000.0
	// vetWarmBatch apps go in one POST /v1/vet/batch at set-up.
	vetWarmBatch = 128
	// openShare of a run's seconds go to the fixed-rate phase, the rest
	// to the closed loop.
	openShare = 0.7
)

// vetPeer is one vetd node with its own store.
type vetPeer struct {
	srv   *vetd.Server
	store *vetstore.Store
	http  *server
}

// vetBench is the vet-mix workload: POST /v1/vet through a vetring router
// in front of vetPeers vetd peers. Set-up sends cfg.size distinct apps,
// more than the peers' verdict caches hold, so the timed phases see
// memory hits, store hits and analyses.
type vetBench struct {
	cfg runCfg
	// openPlan and closedPlan are the two phases' vets, drawn at set-up.
	openPlan, closedPlan []*vetOp
	apps                 []appstore.APK
	bodies               [][]byte
	peers                []*vetPeer
	router               *vetring.Router
	front                *server
	client               *http.Client
	url                  string
}

// vetCounts is a snapshot of the counters the benchmark reads.
type vetCounts struct {
	requests, retries, failovers                uint64
	peerReqs, hits, storeHits, coalesced, sheds uint64
}

func setupVet(cfg runCfg) (bench, error) {
	b := &vetBench{cfg: cfg}
	n := b.plan()
	apps, err := appstore.GenerateApps(cfg.seed, 0, n)
	if err != nil {
		return nil, err
	}
	b.bodies = make([][]byte, len(apps))
	for i, a := range apps {
		if b.bodies[i], err = json.Marshal(vetd.VetRequest{App: a.IR}); err != nil {
			return nil, err
		}
	}
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up: send the first cfg.size apps once, in batches.
	var ops []op
	for i := 0; i < cfg.size; i += vetWarmBatch {
		ops = append(ops, op{lane: i / vetWarmBatch, last: true, do: b.vetBatch(apps[i:min(i+vetWarmBatch, cfg.size)])})
	}
	if p := closedLoop(byLane(ops, cfg.lanes), time.Hour); p.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %d of %d vets failed; first: %v", p.failed, p.attempted, p.firstErr)
	}
	return b, nil
}

// start brings up the peers, their stores and the router.
func (b *vetBench) start() error {
	var names []string
	dial := peerDialer{}
	for i := 0; i < vetPeers; i++ {
		dir := filepath.Join(b.cfg.dir, "vetd-"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		st, err := vetstore.Open(filepath.Join(dir, "verdicts.store"))
		if err != nil {
			return err
		}
		p := &vetPeer{store: st, srv: vetd.New(vetd.Config{Tier: vetTier, Store: st})}
		b.peers = append(b.peers, p)
		var h http.Handler = p.srv
		if b.cfg.traced() {
			h = b.cfg.rec.handler("vetd", h)
		}
		if p.http, err = serve(h); err != nil {
			return err
		}
		name := peerName("vetd", i)
		dial[name] = p.http.addr
		names = append(names, name)
	}
	rc := vetring.Config{Peers: names, Replicas: vetReplicas, Tier: vetTier, Seed: b.cfg.seed, Transport: dial.transport()}
	if b.cfg.traced() {
		rc.Transport = &transport{rec: b.cfg.rec, name: "vetring.call", base: rc.Transport}
	}
	var err error
	if b.router, err = vetring.New(rc); err != nil {
		return err
	}
	var h http.Handler = b.router
	if b.cfg.traced() {
		h = b.cfg.rec.handler("vetring", h)
	}
	if b.front, err = serve(h); err != nil {
		return err
	}
	b.url = "http://" + b.front.addr + "/v1/vet"
	b.client = newClient(b.cfg.lanes)
	return nil
}

func (b *vetBench) close() {
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
		if p.http != nil {
			p.http.close()
		}
		p.srv.Close()
		p.store.Close()
	}
}

// vet returns an op that vets app i and keeps the verdict's Core bytes
// in *core for the check after the run.
func (b *vetBench) vet(i int, core *[]byte) func() error {
	return func() error {
		resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(b.bodies[i]))
		if err != nil {
			return err
		}
		defer drain(resp)
		if err := statusErr("vet", resp); err != nil {
			return err
		}
		var v vetd.Verdict
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return fmt.Errorf("vet: decode verdict: %w", err)
		}
		if core != nil {
			*core, err = v.Core()
		}
		return err
	}
}

// vetBatch returns an op that vets apps in one batch request and expects
// a verdict for each.
func (b *vetBench) vetBatch(apps []appstore.APK) func() error {
	req := vetd.BatchRequest{}
	for _, a := range apps {
		req.Apps = append(req.Apps, a.IR)
	}
	return func() error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := b.client.Post(b.url+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer drain(resp)
		if err := statusErr("vet batch", resp); err != nil {
			return err
		}
		var br vetd.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			return fmt.Errorf("vet batch: decode: %w", err)
		}
		if len(br.Verdicts) != len(apps) {
			return fmt.Errorf("vet batch: %d verdicts for %d apps", len(br.Verdicts), len(apps))
		}
		for _, it := range br.Verdicts {
			if it.Status != http.StatusOK {
				return fmt.Errorf("vet batch: item status %d: %s", it.Status, it.Error)
			}
		}
		return nil
	}
}

func (b *vetBench) counts() vetCounts {
	m := b.router.Metrics()
	c := vetCounts{requests: m.Requests.Load(), retries: m.Retries.Load(), failovers: m.Failovers.Load()}
	for _, p := range b.peers {
		pm := p.srv.Metrics()
		c.peerReqs += pm.Requests.Load()
		c.hits += pm.Hits.Load()
		c.storeHits += pm.StoreHits.Load()
		c.coalesced += pm.Coalesced.Load()
		c.sheds += pm.Sheds.Load()
	}
	return c
}

// vetOp is one planned vet: the app and the Core bytes it answered.
type vetOp struct {
	app   int
	fresh bool
	core  []byte
	// wrong is set by checkVerdicts when the answer was wrong.
	wrong bool
}

// plan draws both phases' vets from the seed and returns how many apps
// they need: the cfg.size sent at set-up, then one per first-seen vet.
func (b *vetBench) plan() int {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	zipf := rand.NewZipf(rng, vetZipfS, 1, uint64(b.cfg.size-1))
	hot := rng.Perm(b.cfg.size)
	next := b.cfg.size
	draw := func(n int) []*vetOp {
		out := make([]*vetOp, n)
		for i := range out {
			if rng.Float64() < vetWriteShare {
				out[i] = &vetOp{app: next, fresh: true}
				next++
			} else {
				out[i] = &vetOp{app: hot[zipf.Uint64()]}
			}
		}
		return out
	}
	b.openPlan = draw(int(vetRate * b.cfg.seconds * openShare))
	b.closedPlan = draw(int(vetClosedMax * b.cfg.seconds * (1 - openShare)))
	return next
}

func (b *vetBench) run() (*outcome, error) {
	o := &outcome{e2e: metrics{}}
	openPlan, closedPlan := b.openPlan, b.closedPlan
	tClosed := time.Duration(b.cfg.seconds * (1 - openShare) * float64(time.Second))
	var openOps []op
	for i, v := range openPlan {
		openOps = append(openOps, b.planned(v, i, time.Duration(float64(i)/vetRate*float64(time.Second))))
	}
	var closedOps []op
	for i, v := range closedPlan {
		closedOps = append(closedOps, b.planned(v, i, 0))
	}

	before := b.counts()
	var mark int64
	if b.cfg.traced() {
		mark = b.cfg.rec.now()
	}
	open := openLoop(openOps, b.cfg.lanes)
	closed := closedLoop(byLane(closedOps, b.cfg.lanes), tClosed)
	after := b.counts()
	o.count(open)
	o.count(closed)
	if closed.exhausted {
		fmt.Fprintln(os.Stderr, "perfbench: vet-mix: closed loop ran out of inputs; peak_per_s is a lower bound")
	}

	// Off the clock: every answered verdict against a direct analysis,
	// then the accounting identities at quiescence.
	b.checkVerdicts(o, append(openPlan, closedPlan...))
	b.checkIdentities(o)

	peak := closed.rate()
	o.e2e.set("lat_p50_ms", quantile(open.all(), 0.5), "ms")
	o.e2e.set("lat_p99_ms", quantile(open.all(), 0.99), "ms")
	o.e2e.set("write_p50_ms", median(open.lat(write)), "ms")
	o.e2e.set("read_p50_ms", median(open.lat(read)), "ms")
	o.e2e.set("peak_per_s", peak, "1/s")
	o.e2e.set("devices_per_s", peak, "1/s")
	if b.cfg.traced() {
		o.layer = metrics{}
		b.layers(o, mark, before, after, open, openPlan)
	}
	return o, nil
}

// planned turns a planned vet into an op.
func (b *vetBench) planned(v *vetOp, i int, due time.Duration) op {
	k := read
	if v.fresh {
		k = write
	}
	return op{lane: i, due: due, kind: k, last: true, do: b.vet(v.app, &v.core), wrong: &v.wrong}
}

// checkVerdicts compares every answered verdict's Core with the Core of
// defense.VetTier on the same IR; a mismatch fails the operation.
func (b *vetBench) checkVerdicts(o *outcome, plan []*vetOp) {
	want := make(map[int][]byte)
	for _, v := range plan {
		if v.core == nil {
			continue // not sent, or already counted failed
		}
		w, ok := want[v.app]
		if !ok {
			w = b.expected(v.app, v.fresh)
			want[v.app] = w
		}
		if v.wrong = !bytes.Equal(v.core, w); v.wrong {
			// The vet was already counted as attempted.
			o.add(0, 1, fmt.Errorf("vet-mix: app %d: served %s, want %s", v.app, v.core, w))
		}
	}
}

// expected is app i's verdict Core from a direct analysis; for a
// first-seen app in a traced run the analysis is timed.
func (b *vetBench) expected(i int, fresh bool) []byte {
	var req vetd.VetRequest
	if err := json.Unmarshal(b.bodies[i], &req); err != nil {
		return nil
	}
	ir := req.App
	t := time.Now()
	v, err := defense.VetTier(ir, vetTier)
	if fresh {
		b.cfg.timer.since("staticanalysis.analyze_us", t, "us")
	}
	if err != nil {
		return nil
	}
	hash, err := vetd.HashIR(ir)
	if err != nil {
		return nil
	}
	core, err := vetd.NewVerdict(v, hash, false).Core()
	if err != nil {
		return nil
	}
	return core
}

// checkIdentities checks the router's and each peer's request
// accounting, which must hold exactly once the ring is quiet.
func (b *vetBench) checkIdentities(o *outcome) {
	m := b.router.Metrics()
	o.check(identity("vetring", m.Replicated.Load()+m.Degraded.Load()+m.Sheds.Load()+m.Failed.Load(), m.Requests.Load()))
	for i, p := range b.peers {
		pm := p.srv.Metrics()
		o.check(identity("vetd-"+strconv.Itoa(i), pm.Hits.Load()+pm.Misses.Load()+pm.Sheds.Load(), pm.Requests.Load()))
	}
}

// identity checks an accounting identity that must hold exactly.
func identity(what string, sum, total uint64) error {
	if sum != total {
		return fmt.Errorf("%s: accounting identity broken: parts sum to %d, total %d", what, sum, total)
	}
	return nil
}

// layers fills the vet plane's per-layer metrics from the spans and
// counters of the timed phases and from timed calls into vetd and
// vetstore on the run's own inputs.
func (b *vetBench) layers(o *outcome, mark int64, before, after vetCounts, open *phase, plan []*vetOp) {
	m, tm := o.layer, b.cfg.timer
	var spans []span
	for _, s := range b.cfg.rec.snapshot() {
		if s.Start >= mark {
			spans = append(spans, s)
		}
	}
	routerSelf, calls, serves, net := hopTimes(spans, "vetring /v1/vet", "vetring.call /v1/vet", "vetd /v1/vet")
	m.timing("vetring.self_ms", routerSelf, "ms")
	m.timing("vetring.peer_call_ms", calls, "ms")
	m.timing("vetd.serve_ms", serves, "ms")
	m.timing("vetd.net_ms", net, "ms")

	reqs := float64(after.requests - before.requests)
	peerReqs := float64(after.peerReqs - before.peerReqs)
	m.set("vetring.retries_per_op", ratio(float64(after.retries-before.retries), reqs), "ratio")
	m.set("vetring.failovers_per_op", ratio(float64(after.failovers-before.failovers), reqs), "ratio")
	m.set("vetd.hit_ratio", ratio(float64(after.hits-before.hits), peerReqs), "ratio")
	m.set("vetd.store_hit_ratio", ratio(float64(after.storeHits-before.storeHits), peerReqs), "ratio")
	m.set("vetd.coalesced_per_op", ratio(float64(after.coalesced-before.coalesced), peerReqs), "ratio")
	m.set("vetd.shed_ratio", ratio(float64(after.sheds-before.sheds), peerReqs), "ratio")

	// Request decoding as vetd does it, and the store on a fresh file,
	// fed the fixed-rate phase's own apps.
	st, err := vetstore.Open(filepath.Join(b.cfg.dir, "probe.store"))
	o.check(err)
	for _, v := range plan {
		t := time.Now()
		var req vetd.VetRequest
		err := json.Unmarshal(b.bodies[v.app], &req)
		hash, herr := vetd.HashIR(req.App)
		tm.since("vetd.decode_us", t, "us")
		if err != nil || herr != nil || !v.fresh || st == nil {
			continue
		}
		verdict, err := defense.VetTier(req.App, vetTier)
		if err != nil {
			continue
		}
		key := vetd.VerdictKey(hash, vetTier)
		t = time.Now()
		o.check(st.Put(key, verdict))
		tm.since("vetstore.put_ms", t, "ms")
		t = time.Now()
		_, ok, err := st.Get(key)
		tm.since("vetstore.get_us", t, "us")
		if err == nil && !ok {
			err = fmt.Errorf("vetstore: key %s lost", key)
		}
		o.check(err)
	}
	if st != nil {
		st.Close()
	}
	m.timing("vetd.decode_us", tm.get("vetd.decode_us"), "us")
	m.timing("staticanalysis.analyze_us", tm.get("staticanalysis.analyze_us"), "us")
	m.timing("vetstore.put_ms", tm.get("vetstore.put_ms"), "ms")
	m.timing("vetstore.get_us", tm.get("vetstore.get_us"), "us")
	m.set("loadgen.late_p99_ms", quantile(open.late, 0.99), "ms")
}

// hopTimes splits the spans of routed requests into router self time,
// peer-call time, peer serve time and network time (peer call minus its
// serve), all in ms. A router span's self time excludes every peer call
// it made.
func hopTimes(spans []span, router, call, peer string) (self, calls, serves, net []float64) {
	kids := children(spans)
	for _, s := range spans {
		switch s.Name {
		case router:
			self = append(self, float64(selfTime(s, kids[s.ID]))/1e6)
		case call:
			calls = append(calls, float64(s.dur())/1e6)
			net = append(net, float64(selfTime(s, kids[s.ID]))/1e6)
		case peer:
			if s.Parent != 0 {
				serves = append(serves, float64(s.dur())/1e6)
			}
		}
	}
	return self, calls, serves, net
}
