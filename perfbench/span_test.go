package main

import (
	"io"
	"net/http"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 10, End: 30}}, 80},
		{"disjoint children", []span{{Start: 10, End: 30}, {Start: 50, End: 60}}, 70},
		{"overlapping children count once", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"child inside another", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"touching children", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"child past the parent's end is clipped", []span{{Start: 90, End: 150}}, 90},
		{"child before the parent's start is clipped", []span{{Start: -20, End: 5}}, 95},
		{"unsorted overlapping children", []span{{Start: 70, End: 80}, {Start: 5, End: 15}, {Start: 10, End: 25}}, 70},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSpansFollowARoutedRequest sends one request through a router that
// calls a peer over loopback and checks the three spans link up: router,
// peer call, peer serve.
func TestSpansFollowARoutedRequest(t *testing.T) {
	rec := newRecorder()
	peer, err := serve(rec.handler("peer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "ok")
	})))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.close()
	client := &http.Client{Transport: &transport{rec: rec, name: "call", base: &http.Transport{}}}
	router, err := serve(rec.handler("router", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), "GET", "http://"+peer.addr+"/v1/x", nil)
		resp, err := client.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		drain(resp)
		time.Sleep(time.Millisecond)
	})))
	if err != nil {
		t.Fatal(err)
	}
	defer router.close()

	resp, err := http.Get("http://" + router.addr + "/v1/x")
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	// A probe without a parent span is not recorded.
	resp, err = client.Get("http://" + peer.addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)

	byName := map[string]span{}
	for _, s := range rec.snapshot() {
		byName[s.Name] = s
	}
	r, c, p := byName["router /v1/x"], byName["call /v1/x"], byName["peer /v1/x"]
	if r.ID == 0 || c.ID == 0 || p.ID == 0 {
		t.Fatalf("missing spans: %+v", byName)
	}
	if c.Parent != r.ID || p.Parent != c.ID || c.Trace != r.ID || p.Trace != r.ID {
		t.Errorf("spans not linked: router %+v call %+v peer %+v", r, c, p)
	}
	if _, ok := byName["call /healthz"]; ok {
		t.Errorf("a request without a parent span was recorded")
	}
	if probe := byName["peer /healthz"]; probe.Parent != 0 {
		t.Errorf("probe span has parent %d", probe.Parent)
	}
	self, calls, serves, net := hopTimes(rec.snapshot(), "router /v1/x", "call /v1/x", "peer /v1/x")
	if len(self) != 1 || len(calls) != 1 || len(serves) != 1 || len(net) != 1 {
		t.Fatalf("hopTimes = %v %v %v %v", self, calls, serves, net)
	}
	if serves[0] < 2 || calls[0] < serves[0] || self[0] < 1 || self[0] > float64(r.dur())/1e6-calls[0]+1e-9 {
		t.Errorf("router self %.3f ms, call %.3f ms, serve %.3f ms, router span %.3f ms", self[0], calls[0], serves[0], float64(r.dur())/1e6)
	}
}
