package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"authtext/internal/httpapi"
)

// bootDeadline bounds daemon exec → /v1/healthz ok. The live workload's
// daemon indexes and RSA-signs the corpus inside this window.
const bootDeadline = 60 * time.Second

// buildDaemon compiles ./cmd/authserved once into dir and returns the
// binary path. It runs from the module root so the relative package path
// resolves wherever the benchmark itself was started.
func buildDaemon(ctx context.Context, moduleRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "authserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/authserved")
	cmd.Dir = moduleRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/authserved: %w\n%s", err, out)
	}
	return bin, nil
}

// findModuleRoot walks up from the working directory to the go.mod of
// this module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from inside the authtext module")
		}
		dir = parent
	}
}

// freePort asks the kernel for an unused loopback port by binding :0 and
// releasing it. The daemon logs the address it was configured with, not
// the one it bound, so -addr :0 would leave the port unknown.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// daemon is one running authserved child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr string // path of the captured stderr
	exited chan struct{}
	// bootMs is exec → first healthz "ok".
	bootMs float64
}

// startDaemon launches bin with args on a fresh loopback port and waits
// until /v1/healthz answers ok. On any failure the child is stopped and
// the error carries its stderr.
func startDaemon(ctx context.Context, bin, workDir string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	errFile, err := os.CreateTemp(workDir, "authserved-*.stderr")
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child keeps its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = errFile
	cmd.SysProcAttr = childAttr()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, stderr: errFile.Name(), exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx, start); err != nil {
		d.stop()
		return nil, fmt.Errorf("authserved %v: %w\n--- daemon stderr ---\n%s", args, err, d.stderrText())
	}
	return d, nil
}

func (d *daemon) waitHealthy(ctx context.Context, start time.Time) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.NewTimer(bootDeadline)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if h, err := d.health(ctx, hc); err == nil && h.Status == "ok" {
			d.bootMs = float64(time.Since(start)) / float64(time.Millisecond)
			return nil
		}
		select {
		case <-tick.C:
		case <-d.exited:
			return errors.New("daemon exited before becoming healthy")
		case <-deadline.C:
			return fmt.Errorf("daemon not healthy after %s", bootDeadline)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// health fetches /v1/healthz.
func (d *daemon) health(ctx context.Context, hc *http.Client) (*httpapi.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+httpapi.PathHealthz, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h httpapi.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// stop ends the child — SIGTERM first so it shuts down the way an
// operator would stop it, SIGKILL if that takes too long — and returns
// only once the process is gone. Safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stderrText returns the end of the daemon's stderr — it logs one line
// per request, so the whole file can run to megabytes.
func (d *daemon) stderrText() string {
	b, err := os.ReadFile(d.stderr)
	if err != nil {
		return err.Error()
	}
	const tail = 4 << 10
	if len(b) > tail {
		b = b[len(b)-tail:]
	}
	return string(b)
}
