package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS the server child runs with: the host's
// cores, capped at four so a larger host measures the same
// configuration.
func childProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// serverProc is one tecore-server child process.
type serverProc struct {
	bin     string
	addr    string
	dataDir string // "" = in-memory sessions
	cmd     *exec.Cmd
	stderr  bytes.Buffer
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the sandbox takes
// ports in between.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newServerProc(bin, dataDir string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	return &serverProc{bin: bin, addr: addr, dataDir: dataDir}, nil
}

// start execs the server; it does not wait for it to listen. With a
// data directory the periodic checkpoint is off, so the only disk
// writes are the ones requests cause and their count repeats.
func (p *serverProc) start() error {
	args := []string{"-addr", p.addr}
	if p.dataDir != "" {
		args = append(args, "-data-dir", p.dataDir, "-checkpoint", "0")
	}
	p.cmd = exec.Command(p.bin, args...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	p.stderr.Reset()
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.bin, err)
	}
	return nil
}

// kill sends SIGKILL and waits until the process has ended.
func (p *serverProc) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	_ = p.cmd.Wait()                          // "signal: killed" is the expected result
	p.cmd = nil
}

// peakRSSMiB reads the child's VmHWM, its peak resident set.
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// client drives the server over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
	}
}

// do sends one request and reads the whole response. out, when non-nil,
// receives the decoded JSON body of a 200 response. It returns the
// status code and the response size in bytes.
func (c *client) do(method, path string, body []byte, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(b), err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, len(b), fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, len(b), nil
}

// awaitListening retries a TCP connect every millisecond until the
// server accepts. A durable server recovers its sessions before it
// listens, so the first accepted connection is also the end of boot
// recovery.
func (p *serverProc) awaitListening(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", p.addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not listen on %s within %v: %v\n%s", p.addr, timeout, err, p.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}
