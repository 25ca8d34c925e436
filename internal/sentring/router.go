// Package sentring is the distributed serving plane for the streaming
// detection service: a device-ID consistent-hash ingest router
// (cmd/sentryrouter) that shards the fleet across N sentryd peers with
// R-way batch replication. The placement, peer set, breakers, probes,
// backoff, fallback gate and fault-injecting transport are the shared
// ring core (internal/ring); this package adds the detection semantics
// — replicate-to-all with duplicate acks, and graceful degradation to a
// local detection engine when every replica for a device is
// unreachable.
//
// Detection safety is structural, not best-effort: a detection is a
// pure function of the device's own record stream, so replicating a
// batch to R peers can never produce a wrong flag — only R consistent
// ones. The router therefore classifies every batch into exactly one of
// routed / degraded / shed / failed (the accounting identity
// cmd/fleetload enforces under chaos), merges the peers' per-device
// accounting rows into one exact fleet-wide /v1/report, proxies
// /v1/flagged to the device's replicas, and fans /v1/config rule swaps
// to every peer — re-pushing the active config when a probe sees a
// restarted peer come back, so a node that lost its in-memory rules
// heals to the ring's version without operator action.
//
// sentring is a wall-clock serving package (simlint's ServingPackages
// allowlist): deadlines, backoff and breaker cooldowns are real time,
// but every detection decision stays virtual-time pure on the peers.
package sentring

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/ring"
	"repro/internal/sentry"
)

// Config parameterizes a Router. Every field except Engine is a setting
// of the shared ring core; ring.Options documents each one and its
// default.
type Config struct {
	Peers    []string
	Replicas int
	VNodes   int
	// Engine configures the local fallback detection engine — it must
	// match the peers' construction config, or degraded batches would be
	// judged under different rules.
	Engine sentry.Config

	Deadline  time.Duration
	Retries   int
	RetryBase time.Duration

	BreakerThreshold int
	BreakerCooldown  time.Duration
	ProbeInterval    time.Duration

	FallbackConcurrency int
	RetryAfter          time.Duration
	MaxBodyBytes        int64

	Seed      int64
	NetPlane  *faults.NetPlane
	Transport http.RoundTripper
}

func (c Config) options() ring.Options {
	return ring.Options{
		Peers:               c.Peers,
		Replicas:            c.Replicas,
		VNodes:              c.VNodes,
		Deadline:            c.Deadline,
		Retries:             c.Retries,
		RetryBase:           c.RetryBase,
		BreakerThreshold:    c.BreakerThreshold,
		BreakerCooldown:     c.BreakerCooldown,
		ProbeInterval:       c.ProbeInterval,
		FallbackConcurrency: c.FallbackConcurrency,
		RetryAfter:          c.RetryAfter,
		MaxBodyBytes:        c.MaxBodyBytes,
		Seed:                c.Seed,
		NetPlane:            c.NetPlane,
		Transport:           c.Transport,
	}
}

// Router is the ring front end, an http.Handler mirroring sentryd's API
// surface (POST /v1/ingest, GET /v1/report, GET /v1/flagged,
// POST /v1/config, GET /healthz, /readyz, /stats, /metrics) so clients
// cannot tell a node from the ring.
type Router struct {
	core *ring.Core
	// local is the fallback detection engine: it absorbs batches whose
	// replica set is entirely unreachable, and it is the version
	// authority for /v1/config fan-out.
	local *sentry.Engine
	mux   *http.ServeMux

	metrics Metrics

	// configMu serializes config fan-out; lastConfig is the active
	// update (version assigned) re-pushed to peers that come back.
	configMu   sync.Mutex
	lastConfig *sentry.ConfigUpdate
}

// New builds a Router over cfg.Peers and starts its health probes.
func New(cfg Config) (*Router, error) {
	core, err := ring.NewCore(cfg.options(), "sentring/backoff")
	if err != nil {
		return nil, err
	}
	local, err := sentry.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	r := &Router{core: core, local: local}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/ingest", r.handleIngest)
	r.mux.HandleFunc("GET /v1/report", r.handleReport)
	r.mux.HandleFunc("GET /v1/flagged", r.handleFlagged)
	r.mux.HandleFunc("POST /v1/config", r.handleConfig)
	r.mux.HandleFunc("GET /healthz", ring.Healthz)
	r.mux.HandleFunc("GET /readyz", core.Readyz)
	r.mux.HandleFunc("GET /stats", r.handleStats)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	// A SIGKILLed peer restarts at rule version 1; the probe that sees it
	// come back heals it to the ring's version.
	core.StartProbes(&r.metrics.ProbeOK, &r.metrics.ProbeFail, r.repushConfig)
	return r, nil
}

// Close stops the health probes and refuses further ingests; in-flight
// requests finish normally.
func (r *Router) Close() { r.core.Close() }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Ring exposes the placement function (tests and topology dumps).
func (r *Router) Ring() *ring.Ring { return r.core.Ring }

// Local exposes the fallback engine (shutdown accounting).
func (r *Router) Local() *sentry.Engine { return r.local }

// repushConfig sends the active config (if any swap happened) to a peer
// that just came back. Idempotent on the peer side: an equal re-push of
// the active version is a no-op, a restarted peer jumps forward.
func (r *Router) repushConfig(p *ring.Peer) {
	r.configMu.Lock()
	u := r.lastConfig
	r.configMu.Unlock()
	if u == nil {
		return
	}
	if err := r.pushConfig(context.Background(), p, *u); err != nil {
		r.metrics.ConfigPushErrs.Add(1)
	}
}

// handleIngest validates the batch, routes it to the device's replica
// set, and classifies it on exactly one batch-level counter — see the
// Metrics contract.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	r.metrics.IngestCalls.Add(1)
	device := req.URL.Query().Get("device")
	if !sentry.ValidToken(device) {
		r.metrics.BadBatches.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, fmt.Sprintf("sentring: bad device %q", device))
		return
	}
	if r.core.Closed() {
		r.metrics.RefusedBatches.Add(1)
		r.core.WriteError(w, http.StatusServiceUnavailable, "sentring: shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.core.Opt.MaxBodyBytes))
	if err != nil {
		r.metrics.BadBatches.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "sentring: read body: "+err.Error())
		return
	}
	// Decode at the router so malformed batches never consume ring
	// capacity; the decoded records also feed the degraded fallback.
	recs, err := sentry.DecodeBatch(body)
	if err != nil {
		r.metrics.BadBatches.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(recs) == 0 {
		r.metrics.BadBatches.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "sentring: empty batch")
		return
	}
	r.metrics.Batches.Add(1)
	res := r.routeBatch(req.Context(), device, body, recs)
	if res.status != http.StatusOK {
		r.core.WriteError(w, res.status, res.errMsg)
		return
	}
	ring.WriteJSON(w, http.StatusOK, res.resp)
}

// routeResult is the classified outcome of one routed batch.
type routeResult struct {
	resp   sentry.IngestResponse
	status int    // HTTP status for the caller
	errMsg string // set when status != 200
}

// routeBatch replicates one device batch to its replica set: every
// replica gets the batch, passes retry with seeded backoff, and the
// batch counts Routed when at least one replica acked. A 409 after a
// transport error on the same peer is a duplicate ack — the peer
// applied the batch but the response was lost, and its strict sequence
// check refused the re-send without applying anything twice. A 409 with
// no preceding transport error is a genuine stream conflict and is
// propagated. With zero acks the batch falls back to the local engine:
// absorbed → Degraded, fallback saturated → Shed, fallback error →
// Failed.
func (r *Router) routeBatch(ctx context.Context, device string, body []byte, recs []sentry.Record) routeResult {
	replicas := r.core.Ring.Replicas(device)
	acked := make([]bool, len(replicas))
	maybeSent := make([]bool, len(replicas))
	ackCount := 0
	var okResp *sentry.IngestResponse

	for pass := 0; pass <= r.core.Opt.Retries; pass++ {
		if pass > 0 {
			r.metrics.Retries.Add(1)
			if !r.core.Backoff(ctx, pass) {
				break
			}
		}
		for ri, pi := range replicas {
			if acked[ri] {
				continue
			}
			p := r.core.Peers[pi]
			if !p.Allow() {
				continue
			}
			status, iresp, errMsg, err := r.tryIngest(ctx, p, device, body)
			switch {
			case err != nil:
				maybeSent[ri] = true
				if p.Failed(ctx) {
					r.metrics.PeerErrs.Add(1)
				}
			case status == http.StatusOK:
				p.Served()
				r.metrics.Acks.Add(1)
				acked[ri] = true
				ackCount++
				if okResp == nil {
					resp := iresp
					okResp = &resp
				}
			case status == http.StatusConflict && maybeSent[ri]:
				// Retry race: an earlier attempt reached the peer but its
				// response was lost; the strict sequence check
				// acknowledges the duplicate without double-applying.
				p.Served()
				r.metrics.DupAcks.Add(1)
				acked[ri] = true
				ackCount++
			case status == http.StatusConflict:
				// Genuine stream conflict: every replica will refuse it
				// the same way. The peer is alive and answered; classify
				// failed, propagate.
				p.Answered()
				r.metrics.Failed.Add(1)
				return routeResult{status: http.StatusConflict, errMsg: errMsg}
			case status == http.StatusTooManyRequests:
				// The peer is alive and shedding: no ack, no breaker
				// damage — opening the circuit on load would amplify the
				// overload onto the remaining replicas.
				r.metrics.Peer429s.Add(1)
				p.Answered()
			default:
				// 5xx (injected storms included) and unexpected codes.
				if p.Failed(ctx) {
					r.metrics.PeerErrs.Add(1)
				}
			}
		}
		if ackCount == len(replicas) {
			break
		}
	}

	if ackCount > 0 {
		r.metrics.Routed.Add(1)
		if okResp == nil {
			// Every ack was a duplicate 409: the batch is applied
			// ring-side, only this round trip's body was lost.
			okResp = &sentry.IngestResponse{Device: device}
		}
		return routeResult{resp: *okResp, status: http.StatusOK}
	}
	return r.fallback(ctx, device, recs)
}

// tryIngest sends one batch attempt to p. The returned error covers
// transport and decode failures only; HTTP-level failures come back as
// the status plus the peer's error message.
func (r *Router) tryIngest(ctx context.Context, p *ring.Peer, device string, body []byte) (int, sentry.IngestResponse, string, error) {
	status, resp, err := r.core.Call(ctx, p, "POST", "/v1/ingest?device="+device, "text/plain", body)
	if err != nil {
		return 0, sentry.IngestResponse{}, "", err
	}
	if status != http.StatusOK {
		var er sentry.ErrorResponse
		// The message is informational; the status alone classifies.
		_ = json.Unmarshal(resp, &er)
		return status, sentry.IngestResponse{}, er.Error, nil
	}
	var ir sentry.IngestResponse
	if err := json.Unmarshal(resp, &ir); err != nil {
		return 0, sentry.IngestResponse{}, "", fmt.Errorf("decode peer response: %w", err)
	}
	return http.StatusOK, ir, "", nil
}

// fallback absorbs the batch into the local engine when every replica
// is unreachable: bounded by the fallback gate (full → shed), stamped
// Degraded — the plane keeps detecting but admits it routed nothing.
func (r *Router) fallback(ctx context.Context, device string, recs []sentry.Record) routeResult {
	release, shed := r.core.EnterFallback(ctx)
	if shed != "" {
		r.metrics.Sheds.Add(1)
		r.local.MarkShed(device)
		return routeResult{status: http.StatusTooManyRequests, errMsg: shed}
	}
	defer release()
	r.metrics.FallbackIngests.Add(1)
	n, err := r.local.Ingest(device, recs)
	if err != nil {
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusConflict, errMsg: fmt.Sprintf("fallback applied %d: %v", n, err)}
	}
	r.metrics.Degraded.Add(1)
	return routeResult{
		resp:   sentry.IngestResponse{Device: device, Records: n, Detected: r.local.Detected(device), Degraded: true},
		status: http.StatusOK,
	}
}

// fetchPeerSnapshot pulls one peer's /v1/report.
func (r *Router) fetchPeerSnapshot(ctx context.Context, p *ring.Peer) (sentry.Snapshot, error) {
	status, body, err := r.core.Call(ctx, p, "GET", "/v1/report", "", nil)
	if err != nil {
		return sentry.Snapshot{}, err
	}
	if status != http.StatusOK {
		return sentry.Snapshot{}, fmt.Errorf("peer %s report: status %d", p.Name, status)
	}
	var snap sentry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return sentry.Snapshot{}, fmt.Errorf("peer %s report: %w", p.Name, err)
	}
	return snap, nil
}

// MergedSnapshot assembles the fleet-wide accounting from every
// reachable peer's per-device rows plus the local fallback engine.
//
// Each device's canonical row comes from the first source in its ring
// preference order (its replica set, then the remaining peers, then the
// local engine) that reported it — under full replication every replica
// holds an identical row, so a healthy merged report is byte-identical
// to a single node's. Status merges with detected-anywhere-wins, then
// shed-anywhere, then clean (the engine's own precedence), so a
// detection that fired on any replica survives the others' crashes.
// Totals are recomputed from the merged rows; the exclusive accounting
// identity holds by construction.
func (r *Router) MergedSnapshot(ctx context.Context) sentry.Snapshot {
	type source struct {
		idx  int // peer index, -1 = local engine
		rows map[string]sentry.DeviceAccount
	}
	var sources []source
	index := make(map[int]int) // peer idx -> sources idx
	for i, p := range r.core.Peers {
		snap, err := r.fetchPeerSnapshot(ctx, p)
		if err != nil {
			continue
		}
		rows := make(map[string]sentry.DeviceAccount, len(snap.Devices))
		for _, row := range snap.Devices {
			rows[row.Device] = row
		}
		index[i] = len(sources)
		sources = append(sources, source{idx: i, rows: rows})
	}
	localSnap := r.local.Snapshot()
	localRows := make(map[string]sentry.DeviceAccount, len(localSnap.Devices))
	for _, row := range localSnap.Devices {
		localRows[row.Device] = row
	}
	index[-1] = len(sources)
	sources = append(sources, source{idx: -1, rows: localRows})

	devices := make(map[string]bool)
	for _, src := range sources {
		for dev := range src.rows {
			devices[dev] = true
		}
	}

	merged := sentry.Snapshot{Service: "sentryrouter"}
	for dev := range devices {
		// Preference order: the device's replica set, then every other
		// peer (a ring reconfiguration could have moved it), then local.
		pref := r.core.Ring.Replicas(dev)
		inPref := make(map[int]bool, len(pref))
		for _, pi := range pref {
			inPref[pi] = true
		}
		for pi := range r.core.Peers {
			if !inPref[pi] {
				pref = append(pref, pi)
			}
		}
		pref = append(pref, -1)

		var canonical *sentry.DeviceAccount
		var detected *sentry.DeviceAccount
		anyShed := false
		for _, pi := range pref {
			si, ok := index[pi]
			if !ok {
				continue
			}
			row, ok := sources[si].rows[dev]
			if !ok {
				continue
			}
			if canonical == nil {
				c := row
				canonical = &c
			}
			if detected == nil && row.Status == "detected" && row.Detection != nil {
				d := row
				detected = &d
			}
			if row.Status == "shed" {
				anyShed = true
			}
		}
		if canonical == nil {
			continue // unreachable: dev came from some source
		}
		row := *canonical
		switch {
		case detected != nil:
			row.Status = "detected"
			row.Detection = detected.Detection
		case anyShed:
			row.Status = "shed"
			row.Detection = nil
		default:
			row.Status = "clean"
			row.Detection = nil
		}
		merged.DevicesReported++
		merged.RecordsIngested += row.Records
		merged.RecordsIgnored += row.Ignored
		merged.RingEvictions += row.Evictions
		switch row.Status {
		case "detected":
			merged.Detected++
			d := *row.Detection
			d.Device = dev
			merged.Detections = append(merged.Detections, d)
		case "shed":
			merged.Shed++
		default:
			merged.Clean++
		}
		merged.Devices = append(merged.Devices, row)
	}
	sort.Slice(merged.Detections, func(i, j int) bool {
		return merged.Detections[i].Device < merged.Detections[j].Device
	})
	sort.Slice(merged.Devices, func(i, j int) bool {
		return merged.Devices[i].Device < merged.Devices[j].Device
	})
	return merged
}

func (r *Router) handleReport(w http.ResponseWriter, req *http.Request) {
	ring.WriteJSON(w, http.StatusOK, r.MergedSnapshot(req.Context()))
}

// handleFlagged proxies "was this device ever flagged" to the device's
// replicas in preference order, returning the first flagged replica's
// response bytes verbatim — so the answer a restarted peer recovers
// from its journal reaches the client byte-identically through the
// ring. An unflagged 200 is kept as the fallback answer; the local
// engine is consulted last.
func (r *Router) handleFlagged(w http.ResponseWriter, req *http.Request) {
	device := req.URL.Query().Get("device")
	if !sentry.ValidToken(device) {
		r.core.WriteError(w, http.StatusBadRequest, fmt.Sprintf("sentring: bad device %q", device))
		return
	}
	var unflagged []byte
	for _, pi := range r.core.Ring.Replicas(device) {
		p := r.core.Peers[pi]
		body, flagged, err := r.tryFlagged(req.Context(), p, device)
		if err != nil {
			continue
		}
		if flagged {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
		if unflagged == nil {
			unflagged = body
		}
	}
	if d, ok := r.local.DetectionFor(device); ok {
		ring.WriteJSON(w, http.StatusOK, sentry.FlaggedResponse{Device: device, Flagged: true, Detection: &d})
		return
	}
	if unflagged != nil {
		w.Header().Set("Content-Type", "application/json")
		w.Write(unflagged)
		return
	}
	r.core.WriteError(w, http.StatusBadGateway, "sentring: no replica answered")
}

func (r *Router) tryFlagged(ctx context.Context, p *ring.Peer, device string) ([]byte, bool, error) {
	status, body, err := r.core.Call(ctx, p, "GET", "/v1/flagged?device="+device, "", nil)
	if err != nil {
		return nil, false, err
	}
	if status != http.StatusOK {
		return nil, false, fmt.Errorf("peer %s flagged: status %d", p.Name, status)
	}
	var fr sentry.FlaggedResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, false, err
	}
	return body, fr.Flagged, nil
}

// ConfigFanout is the POST /v1/config response on the router: the
// version now active and how many peers took it synchronously. Peers
// that missed the fan-out (down, partitioned) are healed by the probe
// loop's re-push when they come back.
type ConfigFanout struct {
	Version    uint64 `json:"version"`
	PeersAcked int    `json:"peers_acked"`
	Peers      int    `json:"peers"`
}

// handleConfig swaps the ring's detection rule set: the local fallback
// engine is the version authority (it assigns the version under
// configMu), then the stamped update fans out to every peer. 400 =
// invalid update, 409 = stale or conflicting version; neither touches
// any engine.
func (r *Router) handleConfig(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.core.Opt.MaxBodyBytes))
	if err != nil {
		r.core.WriteError(w, http.StatusBadRequest, "sentring: read body: "+err.Error())
		return
	}
	u, err := sentry.ParseConfigUpdate(body)
	if err != nil {
		r.core.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	r.configMu.Lock()
	v, err := r.local.ApplyConfig(u)
	if err != nil {
		r.configMu.Unlock()
		status := http.StatusBadRequest
		if u.Validate() == nil {
			status = http.StatusConflict
		}
		r.core.WriteError(w, status, err.Error())
		return
	}
	u.Version = v
	uc := u
	r.lastConfig = &uc
	r.configMu.Unlock()

	acked := 0
	for _, p := range r.core.Peers {
		if err := r.pushConfig(req.Context(), p, u); err != nil {
			r.metrics.ConfigPushErrs.Add(1)
			continue
		}
		acked++
	}
	ring.WriteJSON(w, http.StatusOK, ConfigFanout{Version: v, PeersAcked: acked, Peers: len(r.core.Peers)})
}

// pushConfig sends one stamped config update to a peer.
func (r *Router) pushConfig(ctx context.Context, p *ring.Peer, u sentry.ConfigUpdate) error {
	r.metrics.ConfigPushes.Add(1)
	body, err := u.Encode()
	if err != nil {
		return err
	}
	status, _, err := r.core.Call(ctx, p, "POST", "/v1/config", "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("peer %s config: status %d", p.Name, status)
	}
	return nil
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	ring.WriteJSON(w, http.StatusOK, r.Snapshot())
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.WriteProm(w)
}

// Metrics exposes the counter block (tests).
func (r *Router) Metrics() *Metrics { return &r.metrics }

// PeerNames formats the peer list for logs.
func (r *Router) PeerNames() string { return r.core.PeerNames() }
