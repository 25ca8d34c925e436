package vetring

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/staticanalysis"
	"repro/internal/vetd"
)

// The placement function itself is tested in internal/ring; these tests
// pin how a vetring Router builds and uses it: Config's peers, vnodes
// and replica count reach the ring, and a healthy ring serves each
// verdict from its key's primary replica.

// vetPeer routes req through r and returns the peer that served it.
func vetPeer(t *testing.T, r *Router, req vetd.VetRequest) string {
	t.Helper()
	rec := routePost(t, r, "/v1/vet", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var v vetd.Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Degraded {
		t.Fatal("healthy ring answered degraded")
	}
	return v.Peer
}

func TestRingPlacementDeterministicAndDistinct(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	r1, _ := testRing(t, 4, tier, func(c *Config) { c.VNodes = 64 })
	r2, err := New(Config{Peers: r1.Ring().Peers(), Replicas: 2, VNodes: 64, Tier: tier, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	peers := r1.Ring().Peers()
	counts := make([]int, len(peers))
	for _, apk := range corpus(t, 40) {
		hash, err := vetd.HashIR(apk.IR)
		if err != nil {
			t.Fatal(err)
		}
		key := vetd.VerdictKey(hash, tier)
		a, b := r1.Ring().Replicas(key), r2.Ring().Replicas(key)
		if len(a) != 2 {
			t.Fatalf("replica set size %d, want 2", len(a))
		}
		if a[0] == a[1] {
			t.Fatalf("replica set %v repeats a peer", a)
		}
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("placement differs between identically configured routers: %v vs %v", a, b)
		}
		if got := vetPeer(t, r1, vetd.VetRequest{App: apk.IR}); got != peers[a[0]] {
			t.Fatalf("%s: served by %s, want primary %s", apk.Package, got, peers[a[0]])
		}
		counts[a[0]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("peer %d owns no primaries (counts %v)", i, counts)
		}
	}
}

func TestRingReplicasClampedAndErrors(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	r, _ := testRing(t, 1, tier, func(c *Config) { c.Replicas = 3 })
	if n := r.Ring().ReplicaCount(); n != 1 {
		t.Fatalf("single-peer replica count %d, want 1", n)
	}
	if got := vetPeer(t, r, vetd.VetRequest{App: corpus(t, 1)[0].IR}); got != r.Ring().Peers()[0] {
		t.Fatalf("served by %q, want the only peer", got)
	}
	if _, err := New(Config{ProbeInterval: -1}); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := New(Config{Peers: []string{"127.0.0.1:1", "127.0.0.1:1"}, ProbeInterval: -1}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestRingMinimalReshuffle: dropping one peer from the Config moves only
// the verdicts that peer served; every other app is still served by the
// same node.
func TestRingMinimalReshuffle(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	full, _ := testRing(t, 4, tier, func(c *Config) { c.Replicas = 1 })
	all := full.Ring().Peers()
	reduced, err := New(Config{Peers: all[:3], Replicas: 1, Tier: tier, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reduced.Close()
	kept := 0
	for _, apk := range corpus(t, 40) {
		req := vetd.VetRequest{App: apk.IR}
		was := vetPeer(t, full, req)
		if was == all[3] {
			continue // owned by the removed peer: must move
		}
		if now := vetPeer(t, reduced, req); now != was {
			t.Fatalf("%s moved from %s to %s though its peer stayed", apk.Package, was, now)
		}
		kept++
	}
	if kept == 0 {
		t.Fatal("every app sat on the removed peer; nothing checked")
	}
}

// TestBreakerLifecycle drives a peer's breaker through the router:
// failed vets open it at the threshold, an open breaker keeps vets off
// the peer, a failed half-open trial reopens it, and a served trial
// closes it again.
func TestBreakerLifecycle(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	node := vetd.New(vetd.Config{Tier: tier})
	defer node.Close()
	var failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if failing.Load() {
			http.Error(w, `{"error":"storm"}`, http.StatusServiceUnavailable)
			return
		}
		node.ServeHTTP(w, req)
	}))
	defer ts.Close()
	r, err := New(Config{
		Peers:            []string{strings.TrimPrefix(ts.URL, "http://")},
		Replicas:         1,
		Tier:             tier,
		Retries:          -1,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		ProbeInterval:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	req := vetd.VetRequest{App: corpus(t, 1)[0].IR}
	vet := func() vetd.Verdict {
		t.Helper()
		rec := routePost(t, r, "/v1/vet", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var v vetd.Verdict
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	check := func(wantState string, wantOpens, wantErrs uint64) {
		t.Helper()
		st, opens := r.core.Peers[0].Breaker()
		if errs := r.Snapshot().PeerErrors; st != wantState || opens != wantOpens || errs != wantErrs {
			t.Fatalf("breaker %s opens %d peer_errors %d, want %s/%d/%d", st, opens, errs, wantState, wantOpens, wantErrs)
		}
	}

	if v := vet(); v.Degraded || v.Peer == "" {
		t.Fatalf("fresh breaker refused a healthy peer: %+v", v)
	}
	failing.Store(true)
	vet()
	vet()
	check("closed", 0, 2) // below threshold
	vet()
	check("open", 1, 3)
	if v := vet(); !v.Degraded {
		t.Fatal("open breaker let a vet through")
	}
	check("open", 1, 3) // the peer was not tried
	time.Sleep(250 * time.Millisecond)
	vet() // half-open trial fails → reopen immediately
	check("open", 2, 4)
	vet()
	check("open", 2, 4)
	time.Sleep(250 * time.Millisecond)
	failing.Store(false)
	if v := vet(); v.Degraded {
		t.Fatal("half-open trial not sent to the recovered peer")
	}
	check("closed", 2, 4)
	for i := 0; i < 2; i++ {
		if v := vet(); v.Degraded {
			t.Fatal("closed breaker degraded a vet")
		}
	}
}
