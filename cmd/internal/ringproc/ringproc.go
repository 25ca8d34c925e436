// Package ringproc is the process harness behind the load generators'
// -ring mode (cmd/vetload and cmd/fleetload): it spawns a ring of peer
// processes, each on its own store directory, plus the router in front
// of them, runs a seeded SIGKILL/restart chaos schedule against the
// peers, and shuts everything down on SIGINT, requiring clean exits.
package ringproc

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/simrand"
)

// Proc is one spawned ring process (a peer or the router).
type Proc struct {
	Label  string
	bin    string
	args   []string
	listen string

	mu   sync.Mutex
	cmd  *exec.Cmd
	addr string
	done chan error
}

// Spawn starts the process and waits for its "<listen>ADDR" line,
// mirroring how scripts/verify.sh finds ephemeral ports. All process
// output is forwarded to our stdout, prefixed with the label.
func Spawn(label, bin string, args []string, listen string) (*Proc, error) {
	p := &Proc{Label: label, bin: bin, args: args, listen: listen}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Proc) start() error {
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, p.listen); ok {
				select {
				case addrc <- strings.Fields(a)[0]:
				default:
				}
			}
			fmt.Printf("  [%s] %s\n", p.Label, line)
		}
		done <- cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		p.mu.Lock()
		p.cmd, p.addr, p.done = cmd, addr, done
		p.mu.Unlock()
		return nil
	case err := <-done:
		return fmt.Errorf("%s exited before listening: %v", p.Label, err)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return fmt.Errorf("%s: no listening line within 10s", p.Label)
	}
}

// Addr returns the concrete address the process listens on.
func (p *Proc) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// Kill SIGKILLs the process and reaps it.
func (p *Proc) Kill() {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
		<-done
	}
}

// Restart re-execs the process on its previous concrete address (the
// restart path of a crashed peer: same identity, same store).
func (p *Proc) Restart() error {
	p.mu.Lock()
	// Rewrite -addr to the concrete address from the first spawn so the
	// ring topology is unchanged.
	args := make([]string, len(p.args))
	copy(args, p.args)
	for i := 0; i < len(args)-1; i++ {
		if args[i] == "-addr" {
			args[i+1] = p.addr
		}
	}
	p.args = args
	p.mu.Unlock()
	return p.start()
}

// Interrupt SIGINTs the process and returns its exit error (nil for a
// clean exit 0).
func (p *Proc) Interrupt(timeout time.Duration) error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("%s: not running", p.Label)
	}
	cmd.Process.Signal(syscall.SIGINT)
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s: no clean exit within %v; killed", p.Label, timeout)
	}
}

// Spec describes how to launch one kind of ring process.
type Spec struct {
	Label  string // peers get their index appended: vetd0, vetd1, …
	Bin    string
	Listen string // the "<name>: listening on " line prefix
	// Args builds the command line: a peer's gets its store directory, the
	// router's gets the comma-joined peer addresses.
	Args func(string) []string
}

// Ring owns a spawned topology: the peers and the router in front of
// them.
type Ring struct {
	name   string
	Peers  []*Proc
	Router *Proc

	chaosStop chan struct{}
	chaosDone chan struct{}
	kills     int
}

// Start spawns n peers, peer i on the store directory peer<i> under
// storeRoot (a fresh temporary directory when storeRoot is empty), then
// the router over them. name prefixes the harness's log lines and names
// its chaos stream.
func Start(name string, n int, storeRoot string, peer, router Spec) (*Ring, error) {
	if storeRoot == "" {
		dir, err := os.MkdirTemp("", name+"-ring-")
		if err != nil {
			return nil, err
		}
		storeRoot = dir
	}
	h := &Ring{name: name}
	for i := 0; i < n; i++ {
		dir := filepath.Join(storeRoot, fmt.Sprintf("peer%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			h.StopAll()
			return nil, err
		}
		p, err := Spawn(fmt.Sprintf("%s%d", peer.Label, i), peer.Bin, peer.Args(dir), peer.Listen)
		if err != nil {
			h.StopAll()
			return nil, err
		}
		h.Peers = append(h.Peers, p)
	}
	addrs := make([]string, len(h.Peers))
	for i, p := range h.Peers {
		addrs[i] = p.Addr()
	}
	r, err := Spawn(router.Label, router.Bin, router.Args(strings.Join(addrs, ",")), router.Listen)
	if err != nil {
		h.StopAll()
		return nil, err
	}
	h.Router = r
	return h, nil
}

// StartChaos begins the seeded kill/restart schedule: every interval
// (jittered) one seeded-chosen peer is SIGKILLed, left down briefly,
// and restarted on the same address and store — for limit cycles, or
// until StopChaos stops it first.
func (h *Ring) StartChaos(seed int64, interval time.Duration, limit int) {
	h.chaosStop = make(chan struct{})
	h.chaosDone = make(chan struct{})
	rng := simrand.New(seed).Derive(h.name + "/chaos")
	go func() {
		defer close(h.chaosDone)
		for h.kills < limit {
			wait := time.Duration(float64(interval) * (0.5 + rng.Float64()))
			select {
			case <-h.chaosStop:
				return
			case <-time.After(wait):
			}
			victim := h.Peers[rng.Intn(len(h.Peers))]
			fmt.Printf("%s: chaos: SIGKILL %s (%s)\n", h.name, victim.Label, victim.Addr())
			victim.Kill()
			h.kills++
			downFor := time.Duration(float64(interval) * 0.25 * (0.5 + rng.Float64()))
			select {
			case <-h.chaosStop:
				// Restart even when stopping, so the final shutdown pass
				// finds every peer alive and can verify clean exits.
				if err := victim.Restart(); err != nil {
					fmt.Fprintf(os.Stderr, "%s: chaos: restart %s: %v\n", h.name, victim.Label, err)
				}
				return
			case <-time.After(downFor):
			}
			if err := victim.Restart(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: chaos: restart %s: %v\n", h.name, victim.Label, err)
				return
			}
			fmt.Printf("%s: chaos: restarted %s on %s\n", h.name, victim.Label, victim.Addr())
		}
	}()
}

// StopChaos gives the chaos schedule up to grace to finish on its own,
// then stops it; it returns once the schedule has exited, with every
// peer running. A no-op when chaos never started.
func (h *Ring) StopChaos(grace time.Duration) {
	if h.chaosDone == nil {
		return
	}
	select {
	case <-h.chaosDone:
	case <-time.After(grace):
		close(h.chaosStop)
		<-h.chaosDone
	}
}

// Kills returns the number of chaos kill/restart cycles; read it after
// StopChaos.
func (h *Ring) Kills() int { return h.kills }

// Shutdown SIGINTs the router then every peer, requiring clean exits.
func (h *Ring) Shutdown() error {
	var firstErr error
	if h.Router != nil {
		if err := h.Router.Interrupt(10 * time.Second); err != nil {
			firstErr = fmt.Errorf("router: %w", err)
		}
	}
	for _, p := range h.Peers {
		if err := p.Interrupt(10 * time.Second); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", p.Label, err)
		}
	}
	return firstErr
}

// StopAll is the error-path cleanup: kill everything, ignore outcomes.
func (h *Ring) StopAll() {
	if h.Router != nil {
		h.Router.Kill()
	}
	for _, p := range h.Peers {
		p.Kill()
	}
}
