package ring

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// keyShapes are the two keyspaces the routers place: sentring's
// sequential device IDs and vetring's "<sha256 hex>/tierN" verdict keys.
var keyShapes = []struct {
	name string
	key  func(i int) string
}{
	{"device", func(i int) string { return fmt.Sprintf("dev-%05d", i) }},
	{"verdict", func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("app-%d", i)))
		return hex.EncodeToString(sum[:]) + fmt.Sprintf("/tier%d", i%3)
	}},
}

func TestRingPlacementDeterministicDistinctAndBalanced(t *testing.T) {
	peers := []string{"a:1", "b:1", "c:1", "d:1"}
	const keys = 2000
	for _, ks := range keyShapes {
		t.Run(ks.name, func(t *testing.T) {
			r1, err := New(peers, 64, 2)
			if err != nil {
				t.Fatal(err)
			}
			r2, _ := New(peers, 64, 2)
			counts := make([]int, len(peers))
			for i := 0; i < keys; i++ {
				key := ks.key(i)
				a, b := r1.Replicas(key), r2.Replicas(key)
				if len(a) != 2 {
					t.Fatalf("replica set size %d, want 2", len(a))
				}
				if a[0] == a[1] {
					t.Fatalf("replica set %v repeats a peer", a)
				}
				if a[0] != b[0] || a[1] != b[1] {
					t.Fatalf("placement differs between identical rings: %v vs %v", a, b)
				}
				counts[a[0]]++
			}
			// Perfect balance is 25% each. The finalized hash keeps every
			// peer's primary share within [18%, 32%] on both key shapes;
			// raw FNV-1a gives 15%–37.5% on these keys.
			for i, c := range counts {
				if share := float64(c) / keys; share < 0.18 || share > 0.32 {
					t.Fatalf("peer %d owns %.1f%% of primaries (counts %v); want 18%%–32%%", i, 100*share, counts)
				}
			}
		})
	}
}

func TestRingReplicasClampedAndErrors(t *testing.T) {
	r, err := New([]string{"solo:1"}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas("dev-00001"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-peer replicas %v", got)
	}
	if _, err := New(nil, 8, 1); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := New([]string{"a:1", "a:1"}, 8, 1); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestRingMinimalReshuffle: removing one peer moves only keys that peer
// owned; every other key keeps its primary.
func TestRingMinimalReshuffle(t *testing.T) {
	all := []string{"a:1", "b:1", "c:1", "d:1"}
	full, _ := New(all, 64, 1)
	reduced, _ := New(all[:3], 64, 1) // drop d:1
	for _, ks := range keyShapes {
		moved, kept := 0, 0
		for i := 0; i < 2000; i++ {
			key := ks.key(i)
			was, now := full.Replicas(key)[0], reduced.Replicas(key)[0]
			if was == 3 {
				continue // owned by the removed peer: must move somewhere
			}
			if was == now {
				kept++
			} else {
				moved++
			}
		}
		if moved != 0 {
			t.Fatalf("%s keys: %d not owned by the removed peer changed primary (kept %d)", ks.name, moved, kept)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	if !b.allow() {
		t.Fatal("fresh breaker refuses")
	}
	b.onFailure()
	b.onFailure()
	if !b.allow() {
		t.Fatal("breaker opened below threshold")
	}
	b.onFailure()
	if b.allow() {
		t.Fatal("breaker still closed at threshold")
	}
	if st, opens := b.snapshot(); st != "open" || opens != 1 {
		t.Fatalf("state %s opens %d, want open/1", st, opens)
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.allow() {
		t.Fatal("half-open admitted a second trial")
	}
	b.onFailure() // trial fails → reopen immediately
	if b.allow() {
		t.Fatal("failed trial did not reopen")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second half-open refused")
	}
	b.onSuccess()
	if !b.allow() || !b.allow() {
		t.Fatal("successful trial did not close the breaker")
	}
}
