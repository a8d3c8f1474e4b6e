package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// updateToken is the bearer token every benchmark server requires on
// /v1/update.
const updateToken = "qabench"

// server is one live qaserve process on loopback with a fresh data dir
// (WAL with fsync on every commit).
type server struct {
	cmd   *exec.Cmd
	base  string
	dir   string
	setup time.Duration // start to first /readyz 200
	done  chan struct{} // closed once the process has been waited for
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

// startServer starts bin with a fresh data dir under workDir and waits
// for /readyz. A port lost to a race is retried on another one.
func startServer(bin, workDir string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStart(bin, workDir)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin, workDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "data-")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(dir + ".log")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dir,
		"-update-token", updateToken, "-drain", "5s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Die with the benchmark even if it is killed before it can stop us.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		cmd.Wait() // the exit status is uninteresting: stop decides what was expected
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.cleanup()
			return nil, fmt.Errorf("qaserve exited during boot (see %s.log)", dir)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("qaserve not ready after 60s")
		}
	}
}

// stop drains the server with SIGTERM, escalates to SIGKILL after 15s,
// waits for the process to end, and removes its data dir.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.cleanup()
}

func (s *server) cleanup() {
	os.RemoveAll(s.dir)
	os.Remove(s.dir + ".log")
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics into name{labels} → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// triples reads the live KB size from /healthz.
func (s *server) triples() (int, error) {
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Triples int `json:"triples"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h.Triples, err
}
