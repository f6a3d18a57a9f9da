package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process the harness started.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// Cleanup tracks what a run leaves running or lying around — child
// processes and scratch directories — so that every exit path, a failed
// check and an interrupt included, stops and reaps the former and
// removes the latter. The command shares one Cleanup between Run and its
// signal handler.
type Cleanup struct {
	mu    sync.Mutex
	procs []*proc
	dirs  []string
}

// NewCleanup returns an empty Cleanup.
func NewCleanup() *Cleanup { return &Cleanup{} }

// addDir registers a scratch directory for removal.
func (g *Cleanup) addDir(dir string) {
	g.mu.Lock()
	g.dirs = append(g.dirs, dir)
	g.mu.Unlock()
}

// start launches bin with args, its stderr captured to logPath (kept
// under out/ for post-mortems). stdout is returned for readiness lines
// when wantStdout is set, and discarded otherwise.
func (g *Cleanup) start(name, logPath string, wantStdout bool, bin string, args ...string) (*proc, io.ReadCloser, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	var stdout io.ReadCloser
	if wantStdout {
		if stdout, err = cmd.StdoutPipe(); err != nil {
			logf.Close()
			return nil, nil, err
		}
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child is not an error here
		logf.Close()
		close(p.done)
	}()
	g.mu.Lock()
	g.procs = append(g.procs, p)
	g.mu.Unlock()
	return p, stdout, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process and waits until it has been reaped.
func (p *proc) kill() {
	if !p.exited() {
		_ = p.cmd.Process.Kill() // already-exited races are harmless
	}
	<-p.done
}

// stop asks the process to shut down gracefully and falls back to
// SIGKILL after five seconds.
func (p *proc) stop() {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// usage returns the reaped process's CPU seconds (user + system) and
// peak resident set in MB; zeros while it still runs.
func (p *proc) usage() (cpuS, maxRSSMB float64) {
	if !p.exited() || p.cmd.ProcessState == nil {
		return 0, 0
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return seconds(cpu), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Close kills every child still running, waits for each, and removes
// the scratch directories. Safe to call repeatedly and concurrently.
func (g *Cleanup) Close() {
	g.mu.Lock()
	procs := append([]*proc(nil), g.procs...)
	dirs := append([]string(nil), g.dirs...)
	g.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// buildBinaries compiles remp-server and remp-worker from source into
// out/bin with one go build (a no-op once the build cache is warm).
func (e *env) buildBinaries() (server, worker string, err error) {
	bin := filepath.Join(e.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "repro/cmd/remp-server", "repro/cmd/remp-worker")
	cmd.Dir = e.cfg.BenchDir
	if out, berr := cmd.CombinedOutput(); berr != nil {
		return "", "", fmt.Errorf("go build: %v\n%s", berr, out)
	}
	return filepath.Join(bin, "remp-server"), filepath.Join(bin, "remp-worker"), nil
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the child binds it, so callers retry on a lost race.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// workerReadyLine prefixes the address remp-worker prints once bound.
const workerReadyLine = "remp-worker: listening on "

// startWorker spawns one remp-worker on a kernel-chosen port and
// returns it with its bound address.
func (e *env) startWorker(bin string, i int) (*proc, string, error) {
	logPath := filepath.Join(e.outDir, fmt.Sprintf("%s-worker%d.stderr.log", e.cfg.Workload, i))
	p, stdout, err := e.procs.start(fmt.Sprintf("worker%d", i), logPath, true, bin, "-addr", "127.0.0.1:0", "-quiet")
	if err != nil {
		return nil, "", err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), workerReadyLine); ok {
				addrc <- strings.TrimSpace(rest)
				break
			}
		}
		close(addrc)
		_, _ = io.Copy(io.Discard, stdout) // never let the worker block on a full pipe
	}()
	select {
	case addr := <-addrc:
		if addr == "" {
			p.kill()
			return nil, "", fmt.Errorf("worker %d exited before its readiness line (see %s)", i, logPath)
		}
		return p, addr, nil
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, "", fmt.Errorf("worker %d never printed its readiness line", i)
	}
}

// serverProc is a running remp-server child.
type serverProc struct {
	*proc
	base    string // http://127.0.0.1:port
	started time.Time
}

// startServer spawns remp-server over dataDir and waits until /readyz
// answers 200 — which, because the server recovers its store before it
// listens, also means every stored session has been recovered. A lost
// port race (the child exits before becoming ready) is retried on a
// fresh port.
func (e *env) startServer(bin, dataDir string, workers []string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := []string{"-addr", addr, "-store", "disk", "-data-dir", dataDir, "-shards", fmt.Sprint(Shards), "-quiet"}
		if len(workers) > 0 {
			args = append(args, "-workers", strings.Join(workers, ","))
		}
		e.servers++
		logPath := filepath.Join(e.outDir, fmt.Sprintf("%s-server%d.stderr.log", e.cfg.Workload, e.servers))
		started := time.Now()
		p, _, err := e.procs.start("server", logPath, false, bin, args...)
		if err != nil {
			return nil, err
		}
		sp := &serverProc{proc: p, base: "http://" + addr, started: started}
		if err := sp.waitReady(60 * time.Second); err != nil {
			p.kill()
			lastErr = fmt.Errorf("%w (see %s)", err, logPath)
			continue
		}
		return sp, nil
	}
	return nil, fmt.Errorf("server never became ready: %w", lastErr)
}

// waitReady polls /readyz until it answers 200, the process exits or
// the timeout passes.
func (s *serverProc) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.exited() {
			return fmt.Errorf("server exited before it was ready")
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %s", timeout)
}
