// Package ring is the shared core of the two replicated routers:
// internal/vetring, which shards scan-before-install verdicts across
// vetd peers, and internal/sentring, which shards binder-transaction
// detection ingest across sentryd peers. It owns everything about the
// ring that does not depend on what a request means — consistent-hash
// placement, the peer set with its per-peer circuit breakers fed by
// background /readyz probes, the network fault-injection transport,
// per-attempt deadlines, the seeded inter-pass retry backoff, the
// bounded local-fallback gate, and the HTTP pieces both routers serve
// identically. Each router keeps only its request semantics: how a
// request walks its replica set and what the local fallback computes.
//
// ring is a wall-clock serving package (simlint's ServingPackages
// allowlist): deadlines, backoff, probes and breaker cooldowns are real
// time, while placement stays a pure function of the key.
package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/simrand"
)

// Options are the settings every ring router shares. Zero values take
// the defaults noted on each field.
type Options struct {
	// Peers are the node addresses (host:port), in ring order. The index
	// of a peer in this slice is its identity for the fault plane's
	// partition sets.
	Peers []string
	// Replicas is the replica set size per key (default 2, clamped to
	// len(Peers)).
	Replicas int
	// VNodes is the number of virtual ring points per peer (default 64).
	VNodes int

	// Deadline bounds each peer attempt (default 2s).
	Deadline time.Duration
	// Retries is the number of extra full passes over the replica set
	// after the first (default 1; negative means none). Between passes
	// the router backs off exponentially with seeded jitter.
	Retries int
	// RetryBase is the first inter-pass backoff (default 25ms); pass k
	// waits RetryBase<<(k-1), jittered ±50%.
	RetryBase time.Duration

	// BreakerThreshold consecutive failures open a peer's circuit
	// (default 3); BreakerCooldown is the open→half-open delay (default
	// 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the health-probe period per peer (default 250ms;
	// negative disables probing).
	ProbeInterval time.Duration

	// FallbackConcurrency bounds concurrent local fallback runs
	// (default 4); beyond it the router sheds.
	FallbackConcurrency int
	// RetryAfter is the hint returned with 429 sheds (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies and peer response bodies
	// (default 16 MiB).
	MaxBodyBytes int64

	// Seed feeds the backoff jitter stream (default 1).
	Seed int64
	// NetPlane, when non-nil, injects deterministic network faults
	// beneath the peer HTTP clients. Nil in production.
	NetPlane *faults.NetPlane
	// Transport overrides the base HTTP transport (tests); nil uses a
	// dedicated http.Transport per router.
	Transport http.RoundTripper
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.Deadline <= 0 {
		o.Deadline = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 1
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.FallbackConcurrency <= 0 {
		o.FallbackConcurrency = 4
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Peer is one ring node as the router sees it.
type Peer struct {
	Name   string
	client *http.Client
	brk    *breaker

	served atomic.Uint64
	errors atomic.Uint64
	// ready tracks the last probe outcome so the probe loop can detect a
	// failed→ok transition and hand a restarted peer to the recovery
	// hook.
	ready atomic.Bool
}

// Allow reports whether the peer's breaker admits an attempt now.
func (p *Peer) Allow() bool { return p.brk.allow() }

// Answered records that the peer answered without serving — a 429 shed
// or a sequence conflict: it is alive, so the breaker heals, but it
// gets no served credit.
func (p *Peer) Answered() { p.brk.onSuccess() }

// Served records an attempt the peer served.
func (p *Peer) Served() {
	p.brk.onSuccess()
	p.served.Add(1)
}

// Failed charges a failed attempt — a transport error or a 5xx — to the
// peer and reports whether it did. A failure while ctx, the caller's
// request context, is already done is the caller's: a client that
// disconnects makes every replica it would have walked fail at once,
// and charging those would let a few impatient clients open healthy
// peers' breakers.
func (p *Peer) Failed(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	p.errors.Add(1)
	p.brk.onFailure()
	return true
}

// Breaker returns the peer's breaker state name and open-transition
// count.
func (p *Peer) Breaker() (string, uint64) { return p.brk.snapshot() }

// Core is the request-independent half of a ring router: placement,
// peers, probes, backoff and the fallback gate.
type Core struct {
	Opt   Options // with defaults applied
	Ring  *Ring
	Peers []*Peer

	// jitterMu serializes the seeded backoff stream.
	jitterMu  sync.Mutex
	jitterRng *simrand.Source

	fallbackSem chan struct{}

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	closed    atomic.Bool
}

// NewCore builds the ring and peer set for opt. backoffLabel names the
// backoff jitter stream derived from opt.Seed, so each router keeps a
// stream of its own.
func NewCore(opt Options, backoffLabel string) (*Core, error) {
	opt = opt.withDefaults()
	r, err := New(opt.Peers, opt.VNodes, opt.Replicas)
	if err != nil {
		return nil, err
	}
	base := opt.Transport
	if base == nil {
		base = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	c := &Core{
		Opt:         opt,
		Ring:        r,
		jitterRng:   simrand.New(opt.Seed).Derive(backoffLabel),
		fallbackSem: make(chan struct{}, opt.FallbackConcurrency),
		probeStop:   make(chan struct{}),
	}
	for i, name := range opt.Peers {
		p := &Peer{
			Name: name,
			client: &http.Client{
				Transport: newPeerTransport(base, opt.NetPlane, i),
				Timeout:   opt.Deadline,
			},
			brk: newBreaker(opt.BreakerThreshold, opt.BreakerCooldown),
		}
		p.ready.Store(true) // assume up until a probe says otherwise
		c.Peers = append(c.Peers, p)
	}
	return c, nil
}

// StartProbes starts one /readyz probe loop per peer (unless probing is
// disabled), counting outcomes on ok and fail. recovered, when non-nil,
// runs on the probe goroutine whenever a peer that failed its last
// probe passes one.
func (c *Core) StartProbes(ok, fail *atomic.Uint64, recovered func(*Peer)) {
	if c.Opt.ProbeInterval <= 0 {
		return
	}
	for _, p := range c.Peers {
		c.probeWG.Add(1)
		go c.probeLoop(p, ok, fail, recovered)
	}
}

// probeLoop polls one peer's /readyz and feeds its breaker, so dead
// peers are discovered between requests and recovered peers readmitted
// within one cooldown.
func (c *Core) probeLoop(p *Peer, ok, fail *atomic.Uint64, recovered func(*Peer)) {
	defer c.probeWG.Done()
	t := time.NewTicker(c.Opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.Opt.ProbeInterval)
		req, err := http.NewRequestWithContext(ctx, "GET", "http://"+p.Name+"/readyz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := p.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			ok.Add(1)
			p.brk.onSuccess()
			if !p.ready.Swap(true) && recovered != nil {
				recovered(p)
			}
		} else {
			fail.Add(1)
			p.brk.onFailure()
			p.ready.Store(false)
		}
	}
}

// Close stops the health probes; in-flight requests finish normally.
func (c *Core) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.probeStop)
		c.probeWG.Wait()
	}
}

// Closed reports whether Close has begun.
func (c *Core) Closed() bool { return c.closed.Load() }

// Backoff waits out the delay before retry pass k (1-based):
// RetryBase<<(k-1), jittered uniformly in [0.5x, 1.5x] by the router's
// seeded stream. It returns false if ctx ends first.
func (c *Core) Backoff(ctx context.Context, k int) bool {
	d := c.Opt.RetryBase << (k - 1)
	c.jitterMu.Lock()
	j := 0.5 + c.jitterRng.Float64()
	c.jitterMu.Unlock()
	select {
	case <-time.After(time.Duration(float64(d) * j)):
		return true
	case <-ctx.Done():
		return false
	}
}

// EnterFallback admits one local fallback run through the concurrency
// gate. On admission it returns the release func and an empty reason;
// otherwise the reason the request must be shed instead: the gate is
// full, or ctx ended before the run could start.
func (c *Core) EnterFallback(ctx context.Context) (release func(), shed string) {
	select {
	case c.fallbackSem <- struct{}{}:
	default:
		return nil, "ring unreachable and local fallback saturated"
	}
	if ctx.Err() != nil {
		<-c.fallbackSem
		return nil, "deadline exhausted before fallback"
	}
	return func() { <-c.fallbackSem }, ""
}

// Call sends one attempt to p under the per-attempt Deadline, derived
// from ctx, and returns the response status and body (at most
// MaxBodyBytes of it). The error covers transport failures only;
// HTTP-level failures come back as the status.
func (c *Core) Call(ctx context.Context, p *Peer, method, path, contentType string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.Opt.Deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, "http://"+p.Name+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, c.Opt.MaxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the routers' JSON error body, the shape vetd and
// sentryd answer with too; a 429 also carries the RetryAfter hint, as
// header and as body field.
func (c *Core) WriteError(w http.ResponseWriter, status int, msg string) {
	resp := struct {
		Error         string `json:"error"`
		RetryAfterSec int    `json:"retry_after_sec,omitempty"`
	}{Error: msg}
	if status == http.StatusTooManyRequests {
		sec := int((c.Opt.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		resp.RetryAfterSec = sec
	}
	WriteJSON(w, status, resp)
}

// Healthz answers GET /healthz: the router process is up.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok"}`+"\n")
}

// Readyz answers GET /readyz. The router is ready while it can still
// answer — which, thanks to the degraded fallback, is whenever the
// fallback gate is not saturated, regardless of peer health — and until
// Close begins.
func (c *Core) Readyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, p := range c.Peers {
		if st, _ := p.Breaker(); st == "closed" {
			healthy++
		}
	}
	status, state := http.StatusOK, "ready"
	switch {
	case c.Closed():
		status, state = http.StatusServiceUnavailable, "shutting-down"
	case len(c.fallbackSem) >= cap(c.fallbackSem) && healthy == 0:
		status, state = http.StatusServiceUnavailable, "saturated"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"status":%q,"healthy_peers":%d,"peers":%d}`+"\n", state, healthy, len(c.Peers))
}

// PeerStats is one peer's slice of a router's /stats snapshot.
type PeerStats struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
	Opens   uint64 `json:"breaker_opens"`
	Served  uint64 `json:"served"`
	Errors  uint64 `json:"errors"`
}

// PeerStats snapshots every peer, in ring order.
func (c *Core) PeerStats() []PeerStats {
	out := make([]PeerStats, len(c.Peers))
	for i, p := range c.Peers {
		st, opens := p.Breaker()
		out[i] = PeerStats{
			Name:    p.Name,
			Breaker: st,
			Opens:   opens,
			Served:  p.served.Load(),
			Errors:  p.errors.Load(),
		}
	}
	return out
}

// WritePeerProm renders the per-peer Prometheus rows under the service
// prefix: <service>_peer_served_total (described by servedHelp) and
// <service>_peer_breaker_open.
func (c *Core) WritePeerProm(w io.Writer, service, servedHelp string) {
	stats := c.PeerStats()
	fmt.Fprintf(w, "# HELP %s_peer_served_total %s\n# TYPE %s_peer_served_total counter\n", service, servedHelp, service)
	for _, p := range stats {
		fmt.Fprintf(w, "%s_peer_served_total{peer=%q} %d\n", service, p.Name, p.Served)
	}
	fmt.Fprintf(w, "# HELP %s_peer_breaker_open Peer breaker state (1 = not closed).\n# TYPE %s_peer_breaker_open gauge\n", service, service)
	for _, p := range stats {
		open := 0
		if p.Breaker != "closed" {
			open = 1
		}
		fmt.Fprintf(w, "%s_peer_breaker_open{peer=%q,state=%q} %d\n", service, p.Name, p.Breaker, open)
	}
}

// PeerNames formats the peer list for logs.
func (c *Core) PeerNames() string { return strings.Join(c.Ring.Peers(), ",") }
