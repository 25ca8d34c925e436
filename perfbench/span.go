package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (0 for a root); Trace is the root's ID, shared by every
// span of one request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; write saves them at exit.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, x := range clipped {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// selfTime is the span's duration minus the part of its interval that
// its children cover. Overlapping children (parallel peer calls) count
// once.
func selfTime(parent span, kids []span) int64 {
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{k.Start, k.End}
	}
	return parent.dur() - covered(iv, parent.Start, parent.End)
}

// children indexes spans by parent ID.
func children(spans []span) map[uint64][]span {
	out := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// spanHeader carries the caller's span ID from a router to its peer.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// handler records one span named name per request around h. A request
// that carries spanHeader is a child of that span. The span's ID travels
// in the request context, so calls h makes with it become its children.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := span{ID: r.newID(), Name: name + " " + req.URL.Path, Start: r.now()}
		if p, err := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64); err == nil {
			s.Parent = p
		}
		if t, err := strconv.ParseUint(req.Header.Get(spanHeader+"-Trace"), 10, 64); err == nil {
			s.Trace = t
		}
		ctx := context.WithValue(req.Context(), spanKey{}, [2]uint64{s.ID, s.Trace})
		h.ServeHTTP(w, req.WithContext(ctx))
		s.End = r.now()
		r.add(s)
	})
}

// transport records one span named name per round trip whose request
// context carries a parent span, from sending the request until its
// response body is closed. Requests without a parent (health probes) pass
// through unrecorded.
type transport struct {
	rec  *recorder
	name string
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ids, ok := req.Context().Value(spanKey{}).([2]uint64)
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{ID: t.rec.newID(), Parent: ids[0], Trace: ids[1], Name: t.name + " " + req.URL.Path, Start: t.rec.now()}
	if s.Trace == 0 {
		s.Trace = ids[0]
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	req.Header.Set(spanHeader+"-Trace", strconv.FormatUint(s.Trace, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End, s.Err = t.rec.now(), true
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// spanTimer times calls from the benchmark into a layer's public
// functions.
type spanTimer struct {
	mu sync.Mutex
	xs map[string][]float64
}

func newSpanTimer() *spanTimer { return &spanTimer{xs: make(map[string][]float64)} }

// observe adds one sample to the named series. A nil timer records
// nothing.
func (t *spanTimer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.xs[name] = append(t.xs[name], v)
	t.mu.Unlock()
}

// since records the time elapsed since start, in unit (ms, us or ns).
func (t *spanTimer) since(name string, start time.Time, unit string) {
	if t == nil {
		return
	}
	t.observe(name, scale(time.Since(start), unit))
}

func (t *spanTimer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.xs[name]
}

// scale converts d to unit.
func scale(d time.Duration, unit string) float64 {
	switch unit {
	case "ms":
		return float64(d) / 1e6
	case "us":
		return float64(d) / 1e3
	case "ns":
		return float64(d)
	case "s":
		return d.Seconds()
	}
	panic(fmt.Sprintf("perfbench: unknown time unit %q", unit))
}
