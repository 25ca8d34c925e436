package ring

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// testCore builds a Core over live httptest peers with probing off
// unless the mutator turns it on.
func testCore(t *testing.T, peers []*httptest.Server, mutate func(*Options)) *Core {
	t.Helper()
	opt := Options{ProbeInterval: -1, RetryBase: time.Millisecond}
	for _, ts := range peers {
		opt.Peers = append(opt.Peers, strings.TrimPrefix(ts.URL, "http://"))
	}
	if mutate != nil {
		mutate(&opt)
	}
	c, err := NewCore(opt, "ring/test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func statusServer(t *testing.T, status *atomic.Int32) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(int(status.Load()))
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestCoreDefaults(t *testing.T) {
	var ok atomic.Int32
	ok.Store(http.StatusOK)
	c := testCore(t, []*httptest.Server{statusServer(t, &ok)}, func(o *Options) { o.Retries = -1 })
	o := c.Opt
	if o.Replicas != 2 || o.VNodes != 64 || o.Deadline != 2*time.Second || o.Retries != 0 ||
		o.BreakerThreshold != 3 || o.BreakerCooldown != time.Second || o.FallbackConcurrency != 4 ||
		o.RetryAfter != time.Second || o.MaxBodyBytes != 16<<20 || o.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if c.Ring.ReplicaCount() != 1 {
		t.Fatalf("replicas %d not clamped to the single peer", c.Ring.ReplicaCount())
	}
	if _, err := NewCore(Options{}, "ring/test"); err == nil {
		t.Fatal("empty peer set accepted")
	}
}

// TestCoreAttemptOutcomes: Call reports the peer's status and body, and
// the outcome helpers charge the peer only for its own failures.
func TestCoreAttemptOutcomes(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	c := testCore(t, []*httptest.Server{statusServer(t, &status)}, nil)
	p := c.Peers[0]
	ctx := context.Background()

	code, body, err := c.Call(ctx, p, "POST", "/v1/x", "application/json", []byte(`{}`))
	if err != nil || code != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("call: status %d body %q err %v", code, body, err)
	}
	p.Served()
	p.Answered()

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := c.Call(canceled, p, "GET", "/", "", nil); err == nil {
		t.Fatal("call under a canceled context succeeded")
	}
	for i := 0; i < 5; i++ {
		if p.Failed(canceled) {
			t.Fatal("a failure after the caller gave up was charged to the peer")
		}
	}
	if st, _ := p.Breaker(); st != "closed" {
		t.Fatalf("caller cancellations moved the breaker to %s", st)
	}
	for i := 0; i < 3; i++ {
		if !p.Failed(ctx) {
			t.Fatal("a live caller's failure was not charged")
		}
	}
	if p.Allow() {
		t.Fatal("breaker still admits after threshold failures")
	}
	ps := c.PeerStats()[0]
	if ps.Served != 1 || ps.Errors != 3 || ps.Breaker != "open" || ps.Opens != 1 {
		t.Fatalf("peer stats %+v", ps)
	}
}

func TestCoreFaultTransport(t *testing.T) {
	var ok atomic.Int32
	ok.Store(http.StatusOK)
	peers := []*httptest.Server{statusServer(t, &ok), statusServer(t, &ok)}
	c := testCore(t, peers, func(o *Options) {
		o.NetPlane = faults.NewNetPlane(faults.NetProfile{Name: "t", PartitionPeers: []int{0}, ErrorProb: 1}, 3)
	})
	if _, _, err := c.Call(context.Background(), c.Peers[0], "GET", "/", "", nil); err == nil {
		t.Fatal("partitioned peer answered")
	}
	code, _, err := c.Call(context.Background(), c.Peers[1], "POST", "/", "text/plain", []byte("x"))
	if err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("5xx storm: status %d err %v, want an injected 503", code, err)
	}
}

func TestCoreBackoffAndFallbackGate(t *testing.T) {
	var ok atomic.Int32
	ok.Store(http.StatusOK)
	c := testCore(t, []*httptest.Server{statusServer(t, &ok)}, func(o *Options) { o.FallbackConcurrency = 1 })
	ctx := context.Background()
	if !c.Backoff(ctx, 2) {
		t.Fatal("backoff under a live context gave up")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if c.Backoff(canceled, 1) {
		t.Fatal("backoff outlived its context")
	}

	release, shed := c.EnterFallback(ctx)
	if shed != "" {
		t.Fatalf("empty gate shed: %s", shed)
	}
	if _, shed := c.EnterFallback(ctx); !strings.Contains(shed, "saturated") {
		t.Fatalf("full gate admitted (shed %q)", shed)
	}
	rec := httptest.NewRecorder()
	c.Peers[0].Failed(ctx) // below threshold: still closed, still ready
	c.Readyz(rec, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz with a healthy peer: %d", rec.Code)
	}
	release()
	if _, shed := c.EnterFallback(canceled); !strings.Contains(shed, "deadline") {
		t.Fatalf("canceled caller admitted (shed %q)", shed)
	}
	release, shed = c.EnterFallback(ctx)
	if shed != "" {
		t.Fatalf("released gate still shed: %s", shed)
	}
	release()
}

func TestCoreHTTPPieces(t *testing.T) {
	var ok atomic.Int32
	ok.Store(http.StatusOK)
	c := testCore(t, []*httptest.Server{statusServer(t, &ok)}, func(o *Options) { o.RetryAfter = 1500 * time.Millisecond })

	rec := httptest.NewRecorder()
	c.WriteError(rec, http.StatusTooManyRequests, "busy")
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "2" ||
		strings.TrimSpace(rec.Body.String()) != `{"error":"busy","retry_after_sec":2}` {
		t.Fatalf("429 error: %d %q %q", rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	rec = httptest.NewRecorder()
	Healthz(rec, nil)
	if rec.Body.String() != `{"status":"ok"}`+"\n" {
		t.Fatalf("healthz %q", rec.Body.String())
	}

	var sb strings.Builder
	c.WritePeerProm(&sb, "svc", "Things per peer.")
	name := c.Peers[0].Name
	for _, want := range []string{
		"# TYPE svc_peer_served_total counter\n",
		"svc_peer_served_total{peer=\"" + name + "\"} 0\n",
		"svc_peer_breaker_open{peer=\"" + name + "\",state=\"closed\"} 0\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("prom output lacks %q:\n%s", want, sb.String())
		}
	}
	if c.PeerNames() != name {
		t.Fatalf("peer names %q", c.PeerNames())
	}

	c.Close()
	rec = httptest.NewRecorder()
	c.Readyz(rec, nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "shutting-down") {
		t.Fatalf("readyz after Close: %d %s", rec.Code, rec.Body.String())
	}
}

// TestCoreProbesOpenAndRecover: probes open a failing peer's breaker,
// close it when the peer answers again, and hand the recovered peer to
// the hook exactly on the failed→ok transition.
func TestCoreProbesOpenAndRecover(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	c := testCore(t, []*httptest.Server{statusServer(t, &status)}, func(o *Options) {
		o.ProbeInterval = 5 * time.Millisecond
		o.BreakerThreshold = 2
		o.BreakerCooldown = 10 * time.Millisecond
	})
	var probeOK, probeFail atomic.Uint64
	recovered := make(chan string, 1)
	c.StartProbes(&probeOK, &probeFail, func(p *Peer) {
		select {
		case recovered <- p.Name:
		default:
		}
	})
	waitFor := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st, _ := c.Peers[0].Breaker(); st == want {
				return
			}
			if time.Now().After(deadline) {
				st, _ := c.Peers[0].Breaker()
				t.Fatalf("breaker stuck %s, want %s", st, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	status.Store(http.StatusServiceUnavailable)
	waitFor("open")
	if probeFail.Load() == 0 {
		t.Fatal("probe failures not counted")
	}
	status.Store(http.StatusOK)
	waitFor("closed")
	select {
	case name := <-recovered:
		if name != c.Peers[0].Name {
			t.Fatalf("recovered hook got %q", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recovery hook never ran")
	}
	if probeOK.Load() == 0 {
		t.Fatal("probe successes not counted")
	}
}
