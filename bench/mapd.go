package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot locates the checkout root: BENCH_ROOT when run.sh set it,
// otherwise the nearest ancestor of the working directory holding cmd/mapd
// (tests run from bench/, the driver from the root).
func repoRoot() (string, error) {
	if root := os.Getenv("BENCH_ROOT"); root != "" {
		return root, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mapd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: cmd/mapd not found above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildDir is the one place the benchmark writes: <root>/.bench_build.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildMapd compiles ./cmd/mapd from the checkout's sources. It is part of
// every set-up: the first build in a checkout is slow, later ones only
// revalidate the cached binary. The go tool's caches are wherever the
// environment puts them: run.sh pins them inside the checkout.
func buildMapd(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "mapd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mapd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/mapd: %v\n%s", err, out)
	}
	return bin, nil
}

// mapdProc is one child mapd with its temp store and its single keep-alive
// client connection.
type mapdProc struct {
	cmd       *exec.Cmd
	base      string
	storePath string
	client    *http.Client
	stderr    bytes.Buffer
	stopOnce  sync.Once
}

// children tracks live child daemons so that every exit path — normal
// return, failed check, signal — can stop them.
var children struct {
	mu   sync.Mutex
	live map[*mapdProc]bool
}

func stopAllChildren() {
	children.mu.Lock()
	procs := make([]*mapdProc, 0, len(children.live))
	for p := range children.live {
		procs = append(procs, p)
	}
	children.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

var storeSeq int

// startMapd launches bin with its default flags plus -addr, -store and
// -pprof, and waits for /healthz.
func startMapd(root, bin string) (*mapdProc, error) {
	runDir := filepath.Join(buildDir(root), "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		storeSeq++
		m := &mapdProc{
			base:      fmt.Sprintf("http://127.0.0.1:%d", port),
			storePath: filepath.Join(runDir, fmt.Sprintf("store-%d-%d.log", os.Getpid(), storeSeq)),
		}
		os.Remove(m.storePath)
		m.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-store", m.storePath, "-pprof")
		m.cmd.Stderr = &m.stderr
		// If the benchmark dies without running its deferred clean-up the
		// kernel still takes the daemon down.
		m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := m.cmd.Start(); err != nil {
			return nil, err
		}
		children.mu.Lock()
		if children.live == nil {
			children.live = make(map[*mapdProc]bool)
		}
		children.live[m] = true
		children.mu.Unlock()
		m.client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		}
		if lastErr = m.waitHealthy(5 * time.Second); lastErr == nil {
			return m, nil
		}
		m.stop()
	}
	return nil, lastErr
}

func (m *mapdProc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := m.client.Get(m.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: mapd not healthy: %v\n%s", err, m.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 5 s), waits for
// it and removes the temp store. Safe to call more than once.
func (m *mapdProc) stop() {
	m.stopOnce.Do(func() {
		if m.cmd.Process != nil {
			m.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — already exited is fine
			done := make(chan struct{})
			go func() { m.cmd.Wait(); close(done) }() //nolint:errcheck — exit status is irrelevant on shutdown
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				m.cmd.Process.Kill() //nolint:errcheck
				<-done
			}
		}
		m.client.CloseIdleConnections()
		os.Remove(m.storePath)
		children.mu.Lock()
		delete(children.live, m)
		children.mu.Unlock()
	})
}

// post sends one /map body and returns the status, the fully read reply and
// the client-side latency; the timer stops once the body is drained.
func (m *mapdProc) post(body []byte) (status int, reply []byte, lat time.Duration, err error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, m.base+"/map", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, lat, err
}

func (m *mapdProc) get(path string) ([]byte, error) {
	resp, err := m.client.Get(m.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape reads the daemon's /metrics.
func (m *mapdProc) scrape() (promSample, error) {
	body, err := m.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body)), nil
}

// procMem is the allocation view of a serving process.
type procMem struct {
	TotalAlloc   uint64
	Mallocs      uint64
	PauseTotalNs uint64
	PeakRSSKiB   uint64
}

var (
	memLine   = regexp.MustCompile(`(?m)^# (TotalAlloc|Mallocs|NumGC) = (\d+)$`)
	pauseLine = regexp.MustCompile(`(?m)^# PauseNs = \[([\d ]*)\]$`)
)

// parseHeapText extracts the runtime.MemStats fields pprof prints at the
// end of /debug/pprof/heap?debug=1. The text carries no PauseTotalNs, only
// the ring of the last 256 pauses and NumGC, so the total is estimated as
// mean recorded pause x NumGC.
func parseHeapText(body []byte) (procMem, error) {
	var pm procMem
	var numGC uint64
	found := 0
	for _, mt := range memLine.FindAllSubmatch(body, -1) {
		v, err := strconv.ParseUint(string(mt[2]), 10, 64)
		if err != nil {
			return pm, err
		}
		switch string(mt[1]) {
		case "TotalAlloc":
			pm.TotalAlloc = v
		case "Mallocs":
			pm.Mallocs = v
		case "NumGC":
			numGC = v
		}
		found++
	}
	if found < 3 {
		return pm, fmt.Errorf("bench: pprof heap text lacks MemStats lines")
	}
	if mt := pauseLine.FindSubmatch(body); mt != nil {
		var sum, n uint64
		for _, f := range strings.Fields(string(mt[1])) {
			if v, _ := strconv.ParseUint(f, 10, 64); v > 0 {
				sum += v
				n++
			}
		}
		if n > 0 {
			pm.PauseTotalNs = sum / n * numGC
		}
	}
	return pm, nil
}

var hwmLine = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB$`)

func peakRSSKiB(pid int) uint64 {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	if mt := hwmLine.FindSubmatch(body); mt != nil {
		v, _ := strconv.ParseUint(string(mt[1]), 10, 64)
		return v
	}
	return 0
}

// mem reads the daemon's allocation counters through pprof.
func (m *mapdProc) mem() (procMem, error) {
	body, err := m.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return procMem{}, err
	}
	pm, err := parseHeapText(body)
	pm.PeakRSSKiB = peakRSSKiB(m.cmd.Process.Pid)
	return pm, err
}
