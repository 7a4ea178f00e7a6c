package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/robustserved from the checkout into dir and
// returns the binary's path.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "robustserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/robustserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build robustserved: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one robustserved process on a loopback port.
type child struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// startServer launches the server with the given flags on an ephemeral
// loopback port, stderr (its access and phase logs) going to logPath, and
// returns once it reports its listening address.
func startServer(bin, logPath string, flags []string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stdout = &addrWatcher{found: addr}
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start robustserved: %w", err)
	}
	c := &child{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	select {
	case a := <-addr:
		c.url = "http://" + a
		return c, nil
	case err := <-c.done:
		log.Close()
		return nil, fmt.Errorf("robustserved exited before listening: %v (log %s)", err, logPath)
	case <-time.After(10 * time.Second):
		c.kill()
		log.Close()
		return nil, fmt.Errorf("robustserved did not report a listening address within 10s (log %s)", logPath)
	}
}

// addrWatcher scans the server's stdout for its "listening on" line.
type addrWatcher struct {
	buf   bytes.Buffer
	found chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if w.found == nil {
		return len(p), nil
	}
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // incomplete line: wait for the rest
			return len(p), nil
		}
		if _, a, ok := strings.Cut(strings.TrimSpace(line), "listening on "); ok {
			w.found <- a
			w.found = nil
			return len(p), nil
		}
	}
}

// memMB reads one memory field of the process's /proc status in MB:
// VmRSS (resident set) or VmHWM (its high-water mark).
func (c *child) memMB(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// cpuSeconds is the CPU time all of the process's threads have run so
// far, from /proc/<pid>/task/*/schedstat (nanosecond resolution, unlike
// the clock ticks of /proc/<pid>/stat). The Go runtime keeps its threads,
// so none of the process's CPU time leaves with an exited thread.
func (c *child) cpuSeconds() (float64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat", c.cmd.Process.Pid)
	}
	var ns float64
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		run, _, _ := strings.Cut(strings.TrimSpace(string(raw)), " ")
		v, err := strconv.ParseFloat(run, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s %q: %w", p, raw, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// sampleRSS reads the process's resident set every interval until stop is
// closed, then returns the readings.
func (c *child) sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if mb, err := c.memMB("VmRSS"); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

// stop shuts the server down gracefully and waits for it to exit; a server
// that ignores SIGTERM for 10s is killed. A non-zero exit is an error:
// robustserved exits non-zero only when its drain or final snapshot flush
// lost work.
func (c *child) stop() error {
	defer c.log.Close()
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.done:
		if err != nil {
			return fmt.Errorf("robustserved shutdown: %w (log %s)", err, c.log.Name())
		}
		return nil
	case <-time.After(10 * time.Second):
		c.kill()
		return fmt.Errorf("robustserved ignored SIGTERM for 10s (log %s)", c.log.Name())
	}
}

// kill ends the process at once and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// newHTTPClient is the load generator's client: at most two loopback
// connections, kept alive across requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// drain reads and closes a response body so its connection is reused.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}
