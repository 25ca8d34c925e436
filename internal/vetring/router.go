// Package vetring is the distributed serving plane for the vetting
// service: a consistent-hash router (cmd/vetrouter) that shards the
// verdict keyspace across N vetd peers with R-way replication. The
// placement, peer set, breakers, probes, backoff, fallback gate and
// fault-injecting transport are the shared ring core (internal/ring);
// this package adds the verdict semantics — sequential failover through
// a key's replicas, bounded retry passes, and graceful degradation to a
// local analysis when every replica for a key is unreachable.
//
// Verdict safety is structural, not best-effort: a verdict is a pure
// function of (IR, tier), so replication can never serve a wrong answer
// — only a slower or locally recomputed one. The router therefore
// classifies every request into exactly one of replicated / degraded /
// shed / failed (the accounting identity cmd/vetload -check enforces
// under chaos) and stamps degraded verdicts instead of erroring.
package vetring

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/faults"
	"repro/internal/ring"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
)

// Config parameterizes a Router. Every field except Tier and MaxBatch
// is a setting of the shared ring core; ring.Options documents each one
// and its default.
type Config struct {
	Peers    []string
	Replicas int
	VNodes   int
	// Tier is the static analysis precision tier of the ring; part of
	// every verdict key and of the degraded fallback.
	Tier staticanalysis.Tier

	Deadline  time.Duration
	Retries   int
	RetryBase time.Duration

	BreakerThreshold int
	BreakerCooldown  time.Duration
	ProbeInterval    time.Duration

	FallbackConcurrency int
	RetryAfter          time.Duration
	// MaxBatch bounds batch size (default 256).
	MaxBatch     int
	MaxBodyBytes int64

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

// Router is the ring front end, an http.Handler mirroring vetd's API
// surface (POST /v1/vet, POST /v1/vet/batch, GET /healthz, /readyz,
// /stats, /metrics) so clients cannot tell a node from the ring.
type Router struct {
	core     *ring.Core
	tier     staticanalysis.Tier
	maxBatch int
	mux      *http.ServeMux

	metrics Metrics
}

// New builds a Router over cfg.Peers and starts its health probes.
func New(cfg Config) (*Router, error) {
	core, err := ring.NewCore(cfg.options(), "vetring/backoff")
	if err != nil {
		return nil, err
	}
	r := &Router{core: core, tier: cfg.Tier, maxBatch: cfg.MaxBatch}
	if r.maxBatch <= 0 {
		r.maxBatch = 256
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/vet", r.handleVet)
	r.mux.HandleFunc("POST /v1/vet/batch", r.handleBatch)
	r.mux.HandleFunc("GET /healthz", ring.Healthz)
	r.mux.HandleFunc("GET /readyz", core.Readyz)
	r.mux.HandleFunc("GET /stats", r.handleStats)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	core.StartProbes(&r.metrics.ProbeOK, &r.metrics.ProbeFail, nil)
	return r, nil
}

// Close stops the health probes; in-flight requests finish normally.
func (r *Router) Close() { r.core.Close() }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Ring exposes the placement function (tests and topology dumps).
func (r *Router) Ring() *ring.Ring { return r.core.Ring }

// routeResult is the classified outcome of one routed request.
type routeResult struct {
	verdict vetd.Verdict
	status  int    // HTTP status for the caller
	errMsg  string // set when status != 200
}

// routeOne resolves one app through the ring: replicas in preference
// order, bounded retry passes with seeded backoff, then local degraded
// fallback. It classifies the request on exactly one of the four
// request-level counters.
func (r *Router) routeOne(ctx context.Context, app *dexir.App) routeResult {
	r.metrics.Requests.Add(1)
	hash, err := vetd.HashIR(app)
	if err != nil {
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusInternalServerError, errMsg: err.Error()}
	}
	key := vetd.VerdictKey(hash, r.tier)
	replicas := r.core.Ring.Replicas(key)

	body, err := json.Marshal(vetd.VetRequest{App: app})
	if err != nil {
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusInternalServerError, errMsg: err.Error()}
	}
	path := "/v1/vet?deadline_ms=" + strconv.FormatInt(r.core.Opt.Deadline.Milliseconds(), 10)

	for pass := 0; pass <= r.core.Opt.Retries; pass++ {
		if pass > 0 {
			r.metrics.Retries.Add(1)
			if !r.core.Backoff(ctx, pass) {
				return r.fallback(ctx, app, hash)
			}
		}
		for ri, pi := range replicas {
			if ri > 0 {
				r.metrics.Failovers.Add(1)
			}
			p := r.core.Peers[pi]
			if !p.Allow() {
				continue
			}
			v, status, err := r.tryPeer(ctx, p, path, body)
			switch {
			case err == nil && status == http.StatusOK:
				p.Served()
				r.metrics.Replicated.Add(1)
				v.Peer = p.Name
				return routeResult{verdict: v, status: http.StatusOK}
			case err == nil && status == http.StatusTooManyRequests:
				// The peer is alive and shedding: failover without
				// breaker damage — opening the circuit on load would
				// amplify the overload onto the remaining replicas.
				r.metrics.Peer429s.Add(1)
				p.Answered()
			default:
				// Transport errors, 5xx (injected storms included) and
				// unexpected codes.
				if p.Failed(ctx) {
					r.metrics.PeerErrs.Add(1)
				}
			}
		}
	}
	return r.fallback(ctx, app, hash)
}

// tryPeer sends one attempt to p. The returned error covers transport
// and decode failures only; HTTP-level failures come back as the status.
func (r *Router) tryPeer(ctx context.Context, p *ring.Peer, path string, body []byte) (vetd.Verdict, int, error) {
	status, resp, err := r.core.Call(ctx, p, "POST", path, "application/json", body)
	if err != nil || status != http.StatusOK {
		return vetd.Verdict{}, status, err
	}
	var v vetd.Verdict
	if err := json.Unmarshal(resp, &v); err != nil {
		return vetd.Verdict{}, 0, fmt.Errorf("decode peer verdict: %w", err)
	}
	return v, http.StatusOK, nil
}

// fallback computes the verdict locally when every replica is
// unreachable: bounded by the fallback gate (full → shed), stamped
// Degraded — the ring answers correctly but admits it routed nothing.
func (r *Router) fallback(ctx context.Context, app *dexir.App, hash string) routeResult {
	release, shed := r.core.EnterFallback(ctx)
	if shed != "" {
		r.metrics.Sheds.Add(1)
		return routeResult{status: http.StatusTooManyRequests, errMsg: shed}
	}
	defer release()
	r.metrics.FallbackAnalyses.Add(1)
	vv, err := defense.VetTier(app, r.tier)
	if err != nil {
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusInternalServerError, errMsg: err.Error()}
	}
	v := vetd.NewVerdict(vv, hash, false)
	v.Degraded = true
	r.metrics.Degraded.Add(1)
	return routeResult{verdict: v, status: http.StatusOK}
}

func (r *Router) handleVet(w http.ResponseWriter, req *http.Request) {
	var vr vetd.VetRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, r.core.Opt.MaxBodyBytes)).Decode(&vr); err != nil {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if vr.App == nil {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "missing app")
		return
	}
	res := r.routeOne(req.Context(), vr.App)
	if res.status != http.StatusOK {
		r.core.WriteError(w, res.status, res.errMsg)
		return
	}
	ring.WriteJSON(w, http.StatusOK, res.verdict)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	var br vetd.BatchRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, r.core.Opt.MaxBodyBytes)).Decode(&br); err != nil {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(br.Apps) == 0 || len(br.Apps) > r.maxBatch {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch size must be 1..%d", r.maxBatch))
		return
	}
	resp := vetd.BatchResponse{Verdicts: make([]vetd.BatchItem, len(br.Apps))}
	for i, app := range br.Apps {
		if app == nil {
			r.metrics.BadRequests.Add(1)
			resp.Verdicts[i] = vetd.BatchItem{Status: http.StatusBadRequest, Error: "missing app"}
			continue
		}
		res := r.routeOne(req.Context(), app)
		if res.status != http.StatusOK {
			resp.Verdicts[i] = vetd.BatchItem{Status: res.status, Error: res.errMsg}
			continue
		}
		v := res.verdict
		resp.Verdicts[i] = vetd.BatchItem{Status: http.StatusOK, Verdict: &v}
	}
	ring.WriteJSON(w, http.StatusOK, resp)
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
