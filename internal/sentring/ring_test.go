package sentring

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/sentry"
)

// The placement function itself is tested in internal/ring; these tests
// pin how a sentring Router builds and uses it: Config's peers, vnodes
// and replica count reach the ring, and every batch of a device lands on
// exactly the peers of its replica set.

// holders returns the indices of the nodes whose engines flagged device.
func holders(nodes []*sentry.Server, device string) []int {
	var out []int
	for i, n := range nodes {
		if n.Engine().Detected(device) {
			out = append(out, i)
		}
	}
	return out
}

func TestRingPlacementDeterministicAndDistinct(t *testing.T) {
	r1, nodes := testRing(t, 4, func(c *Config) { c.VNodes = 64 })
	r2, err := New(Config{Peers: r1.Ring().Peers(), Replicas: 2, VNodes: 64, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	counts := make([]int, len(nodes))
	for i := 0; i < 60; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		a, b := r1.Ring().Replicas(device), r2.Ring().Replicas(device)
		if len(a) != 2 {
			t.Fatalf("replica set size %d, want 2", len(a))
		}
		if a[0] == a[1] {
			t.Fatalf("replica set %v repeats a peer", a)
		}
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("placement differs between identically configured routers: %v vs %v", a, b)
		}
		if rec := ingest(t, r1, device, attackerBatch(t, device, 0)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", device, rec.Code, rec.Body.String())
		}
		got := holders(nodes, device)
		lo, hi := min(a[0], a[1]), max(a[0], a[1])
		if len(got) != 2 || got[0] != lo || got[1] != hi {
			t.Fatalf("%s held by peers %v, want its replica set %v", device, got, a)
		}
		counts[a[0]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("peer %d owns no primaries (counts %v)", i, counts)
		}
	}
	checkAccounting(t, r1)
}

func TestRingReplicasClampedAndErrors(t *testing.T) {
	r, nodes := testRing(t, 1, func(c *Config) { c.Replicas = 3 })
	if n := r.Ring().ReplicaCount(); n != 1 {
		t.Fatalf("single-peer replica count %d, want 1", n)
	}
	if rec := ingest(t, r, "dev-00001", attackerBatch(t, "dev-00001", 0)); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := holders(nodes, "dev-00001"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-peer holders %v", got)
	}
	if st := r.Snapshot(); st.Acks != 1 || st.Routed != 1 {
		t.Fatalf("single-peer ring: acks=%d routed=%d, want 1/1", st.Acks, st.Routed)
	}
	if _, err := New(Config{ProbeInterval: -1}); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := New(Config{Peers: []string{"127.0.0.1:1", "127.0.0.1:1"}, ProbeInterval: -1}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestRingMinimalReshuffle: dropping one peer from the Config moves only
// the devices that peer held; every other device lands on the same node.
func TestRingMinimalReshuffle(t *testing.T) {
	full, nodes := testRing(t, 4, func(c *Config) { c.Replicas = 1 })
	reduced, err := New(Config{Peers: full.Ring().Peers()[:3], Replicas: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reduced.Close()
	kept := 0
	for i := 0; i < 60; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		if rec := ingest(t, full, device, attackerBatch(t, device, 0)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", device, rec.Code, rec.Body.String())
		}
		was := holders(nodes, device)
		if len(was) != 1 {
			t.Fatalf("%s held by %v, want one peer", device, was)
		}
		if was[0] == 3 {
			continue // held by the removed peer: must move
		}
		// The same device's next batch through the reduced ring must
		// reach the node that already holds its stream, and no other.
		if rec := ingest(t, reduced, device, attackerBatch(t, device, 16)); rec.Code != http.StatusOK {
			t.Fatalf("%s moved off its peer %d: status %d: %s", device, was[0], rec.Code, rec.Body.String())
		}
		if now := holders(nodes, device); len(now) != 1 || now[0] != was[0] {
			t.Fatalf("%s moved from peer %d to %v though its peer stayed", device, was[0], now)
		}
		kept++
	}
	if kept == 0 {
		t.Fatal("every device sat on the removed peer; nothing checked")
	}
	checkAccounting(t, reduced)
}
