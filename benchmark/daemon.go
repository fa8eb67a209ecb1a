package main

import (
	"bytes"
	"context"
	"encoding/json"
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

const (
	readyTimeout = 60 * time.Second
	stopTimeout  = 10 * time.Second
	buildTimeout = 10 * time.Minute
	pollInterval = 2 * time.Millisecond
)

// proc is one bfsd process under test. Each runs in its own process group
// so a stray child cannot outlive the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	args []string
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

// killAll SIGKILLs every process group still running; main calls it on
// every exit path and from the signal handler.
func killAll() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for p := range live {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
		delete(live, p)
	}
}

// buildBfsd compiles cmd/bfsd from this checkout and returns the binary
// path and how long the build took.
func buildBfsd(e *env) (string, float64, error) {
	bin := filepath.Join(e.root, ".bench_build", "bin", "bfsd")
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bfsd")
	cmd.Dir = e.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("building cmd/bfsd: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// freeAddr reserves a loopback port by binding :0 and releasing it; bfsd
// logs the address it was given, not the one it bound, so it cannot be
// handed :0 itself.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bfsd on a fresh port with its output captured
// under the run's out directory.
func (e *env) startDaemon(name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: addr, log: logf, done: make(chan struct{})}
	p.args = append([]string{"-addr", addr}, args...)
	p.cmd = exec.Command(e.bfsd, p.args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	e.cmdlines = append(e.cmdlines, "bfsd "+strings.Join(p.args, " "))
	return p, nil
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// waitReady polls /readyz until it answers 200. A process that exits
// first, or stays unready past the step timeout, is an error.
func (p *proc) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming ready (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := http.Get(p.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(pollInterval)
	}
	return fmt.Errorf("%s not ready after %v (see %s)", p.name, readyTimeout, p.log.Name())
}

// rssMB reads a process's resident set (VmRSS of /proc/<pid>/status) in MB.
func rssMB(pid string) (float64, error) {
	const field = "VmRSS"
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// rssSampler samples the summed resident set (VmRSS) of some processes
// ten times a second while a timed window runs. The median sample is the
// steady-state footprint; the peak (VmHWM) belongs to set-up garbage and
// differs by tens of MB from run to run with GC timing.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func sampleRSS(pids ...string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var sum float64
			for _, pid := range pids {
				mb, err := rssMB(pid)
				if err != nil {
					s.err = err
					return
				}
				sum += mb
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// medianMB stops the sampler and returns the median sample.
func (s *rssSampler) medianMB() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.samples), s.err
}

// stop asks the daemon to drain (SIGTERM), waits for it to exit, and
// kills the whole group if it does not.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(stopTimeout):
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	p.log.Close()
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

// httpJSON sends one request and decodes a 2xx JSON reply into out (when
// non-nil). It returns the status and the reply size.
func httpJSON(c *http.Client, method, url string, body []byte, out any) (status, size int, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	return httpDo(c, req, out)
}

// httpDo is httpJSON for a request the caller prepared.
func httpDo(c *http.Client, req *http.Request, out any) (status, size int, err error) {
	if req.ContentLength > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, len(raw), fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, len(raw), fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL, err)
		}
	}
	return resp.StatusCode, len(raw), nil
}

// newLoadClient returns the load generator's HTTP client: keep-alive, one
// idle connection per closed-loop caller.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
}
