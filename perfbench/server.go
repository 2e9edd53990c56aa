package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/vista-server from the checkout at root.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/vista-server")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build vista-server: %w", err)
	}
	return nil
}

// server is one spawned vista-server process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawnServer starts bin with a fresh feature store under dir and waits for
// its first healthy /healthz.
func spawnServer(ctx context.Context, bin, dir string, flags []string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-feature-cache", filepath.Join(dir, "store")}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Spill files and any other temporaries stay inside the checkout.
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(dir, "tmp"))
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start vista-server: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	go func() { s.done <- cmd.Wait() }()
	if err := s.awaitHealthy(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) awaitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("vista-server exited before becoming healthy: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("vista-server not healthy within 30s")
}

// peakRSSMiB reads the server's VmHWM (peak resident set) from procfs.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// stop sends SIGTERM, waits for the process to exit (killing it after the
// server's own drain timeout), and closes its log.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// outcome is one /run request's result as the load generator saw it.
type outcome struct {
	req     request
	latency time.Duration // from send (closed loop) or due time (open loop)
	late    time.Duration // how late the send was against when it became due
	err     error         // transport error, bad status, or failed output check
	trace   traceRec      // the traced run's per-layer times (traced replay only)
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// post sends one /run request and decodes a 200 body.
func post(ctx context.Context, client *http.Client, base string, req request) (runResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return runResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(body))
	if err != nil {
		return runResponse{}, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return runResponse{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return runResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return runResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var rr runResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return runResponse{}, fmt.Errorf("decode /run response: %w", err)
	}
	return rr, nil
}

// send posts req and runs the output checks on a 200.
func send(ctx context.Context, client *http.Client, base string, req request, chk *checker) outcome {
	rr, err := post(ctx, client, base, req)
	switch {
	case err != nil:
	case rr.Crashed:
		err = fmt.Errorf("%s seed %d crashed: %s", req.Model, req.Seed, rr.Crash)
	default:
		err = chk.check("http", req, rr.Layers)
	}
	return outcome{req: req, err: err}
}

// prime materializes reqs on the server, two at a time, failing on any
// unchecked output.
func prime(ctx context.Context, client *http.Client, base string, reqs []request, chk *checker) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, clients)
	for i, r := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, r request) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = send(ctx, client, base, r, chk).err
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedLoop runs `clients` clients, each sending its next request from the
// shared stream as soon as its previous one completes, until d has passed.
// late is the gap between a client's previous response and its next send.
func closedLoop(ctx context.Context, evs []event, d time.Duration, do func(request) outcome) ([]outcome, time.Duration) {
	var mu sync.Mutex
	next := 0
	var outs []outcome
	start := time.Now()
	stopAt := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				mu.Lock()
				if next >= len(evs) {
					mu.Unlock()
					return
				}
				req := evs[next].req
				next++
				mu.Unlock()
				sent := time.Now()
				o := do(req)
				done := time.Now()
				o.latency = done.Sub(sent)
				o.late = sent.Sub(due)
				due = done
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop sends every event at its due time on `clients` connections, in
// schedule order. Latency counts from the due time, so a stall is charged
// to the requests queued behind it; late is how far behind schedule the
// send went out.
func openLoop(ctx context.Context, evs []event, do func(request) outcome) ([]outcome, time.Duration) {
	var mu sync.Mutex
	next := 0
	outs := make([]outcome, 0, len(evs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if next >= len(evs) {
					mu.Unlock()
					return
				}
				ev := evs[next]
				next++
				mu.Unlock()
				due := start.Add(ev.due)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Now()
				o := do(ev.req)
				o.latency = time.Since(due)
				o.late = sent.Sub(due)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}
