package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// server is an http.Handler served on a real loopback listener.
type server struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	s := &server{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close closes the listener and every connection, then waits for Serve
// to return.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// newClient returns the load generator's HTTP client: at most lanes
// connections to any host, one per sender.
func newClient(lanes int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: lanes, MaxIdleConnsPerHost: lanes},
	}
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// statusErr reports a non-200 response.
func statusErr(what string, resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, body)
}

// peerDialer maps the stable names a ring router knows its peers by to
// the peers' loopback listener addresses.
//
// The rings place peers by hashing their names. Named by their ephemeral
// ports, the peers would land on a new ring layout in every run, and on
// sentry-peer-down the share of devices whose replica set holds the dead
// peer would range from 56% to 75% between runs.
type peerDialer map[string]string

// peerName is peer i's stable name on a ring of the given plane.
func peerName(plane string, i int) string { return fmt.Sprintf("%s-%d:80", plane, i) }

// transport returns the routers' default transport,
// &http.Transport{MaxIdleConnsPerHost: 16}, dialing each peer name at its
// listener.
func (d peerDialer) transport() *http.Transport {
	var nd net.Dialer
	return &http.Transport{
		MaxIdleConnsPerHost: 16,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := d[addr]; ok {
				addr = a
			}
			return nd.DialContext(ctx, network, addr)
		},
	}
}
