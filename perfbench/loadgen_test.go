package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopStallShowsInQueuedRequests stalls one request in a fake
// handler and checks that every request due during the stall carries the
// stall in its latency, because latency runs from the due time, while
// the generator's own lateness stays small.
func TestOpenLoopStallShowsInQueuedRequests(t *testing.T) {
	const (
		stall   = 150 * time.Millisecond
		gap     = 5 * time.Millisecond
		stalled = 4
	)
	srv, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == fmt.Sprint(stalled) {
			time.Sleep(stall)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	client := newClient(1)
	var ops []op
	for i := 0; i < 30; i++ {
		url := fmt.Sprintf("http://%s/?i=%d", srv.addr, i)
		ops = append(ops, op{due: time.Duration(i) * gap, do: func() error {
			resp, err := client.Get(url)
			if err != nil {
				return err
			}
			drain(resp)
			return nil
		}})
	}
	p := openLoop(ops, 1)
	lat := p.lat(write)
	if p.failed != 0 || len(lat) != len(ops) {
		t.Fatalf("failed %d, latencies %d; first error %v", p.failed, len(lat), p.firstErr)
	}
	for i := stalled + 1; i < len(ops); i++ {
		// Op i was due (i-stalled)*gap after the stalled op started and
		// could not be sent before the stall ended.
		want := stall - time.Duration(i-stalled)*gap
		if got := time.Duration(lat[i] * 1e6); want > 0 && got < want {
			t.Errorf("op %d: latency %v, want at least %v queued behind the stall", i, got, want)
		}
	}
	if before := lat[stalled-1]; before > float64(stall/time.Millisecond)/2 {
		t.Errorf("op before the stall took %.1f ms", before)
	}
	for i, late := range p.late {
		if late > float64(stall/time.Millisecond)/2 {
			t.Errorf("op %d: generator lateness %.1f ms includes queueing", i, late)
		}
	}
}

// TestLanesKeepOrderAndConnectionLimit runs both loops on two lanes and
// checks that each lane's ops run in order, one at a time, over at most
// two client connections, and that the closed loop finishes the stream in
// flight at its deadline.
func TestLanesKeepOrderAndConnectionLimit(t *testing.T) {
	const lanes, streamLen = 2, 5
	var conns, inflight, peak atomic.Int64
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
		}),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client := newClient(lanes)

	var mu sync.Mutex
	seen := map[int][]int{} // lane -> op indices in run order
	mk := func(lane, i int, last bool, due time.Duration) op {
		return op{lane: lane, due: due, last: last, do: func() error {
			resp, err := client.Get("http://" + ln.Addr().String() + "/")
			if err != nil {
				return err
			}
			drain(resp)
			mu.Lock()
			seen[lane] = append(seen[lane], i)
			mu.Unlock()
			return nil
		}}
	}
	var open []op
	for i := 0; i < 40; i++ {
		open = append(open, mk(i%lanes, i, true, time.Duration(i)*200*time.Microsecond))
	}
	if p := openLoop(open, lanes); p.failed != 0 {
		t.Fatal(p.firstErr)
	}
	for lane, idx := range seen {
		for k := 1; k < len(idx); k++ {
			if idx[k] < idx[k-1] {
				t.Errorf("open loop lane %d ran op %d after op %d", lane, idx[k], idx[k-1])
			}
		}
	}

	seen = map[int][]int{}
	closed := make([][]op, lanes)
	for lane := range closed {
		for i := 0; i < 1000; i++ {
			closed[lane] = append(closed[lane], mk(lane, i, i%streamLen == streamLen-1, 0))
		}
	}
	p := closedLoop(closed, 30*time.Millisecond)
	if p.failed != 0 || p.exhausted || p.counted == 0 {
		t.Fatalf("closed loop: failed %d exhausted %v counted %d", p.failed, p.exhausted, p.counted)
	}
	for lane, idx := range seen {
		if len(idx)%streamLen != 0 {
			t.Errorf("lane %d stopped mid-stream after %d ops", lane, len(idx))
		}
	}
	if p.attempted < p.counted || p.rate() <= 0 {
		t.Errorf("attempted %d counted %d rate %v", p.attempted, p.counted, p.rate())
	}
	if c := conns.Load(); c > lanes {
		t.Errorf("%d client connections, want at most %d", c, lanes)
	}
	if pk := peak.Load(); pk > lanes {
		t.Errorf("%d requests in flight at once, want at most %d", pk, lanes)
	}
}

func TestWrongAnswerMissesEveryLatencyLimit(t *testing.T) {
	wrong := new(bool)
	ops := []op{
		{kind: write, do: func() error { return nil }},
		{kind: write, wrong: wrong, do: func() error { return nil }},
		{kind: read, do: func() error { return fmt.Errorf("refused") }},
	}
	p := openLoop(ops, 1)
	if p.failed != 1 {
		t.Fatalf("failed %d, want 1", p.failed)
	}
	if w := p.lat(write); math.IsInf(w[0], 1) || math.IsInf(w[1], 1) {
		t.Fatalf("write latencies %v before the checks ran", w)
	}
	*wrong = true // the checks after the run found op 1's answer wrong
	w, r := p.lat(write), p.lat(read)
	if math.IsInf(w[0], 1) || !math.IsInf(w[1], 1) || !math.IsInf(r[0], 1) {
		t.Errorf("latencies write %v read %v: want the wrong and the failed op at +Inf", w, r)
	}
	if got := quantile(p.all(), 0.5); got != failedLatency {
		t.Errorf("median of 1 right and 2 wrong ops = %v, want %v", got, failedLatency)
	}
}
