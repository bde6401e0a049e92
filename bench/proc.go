package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
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

// child is one running child process. A goroutine of its own reaps it,
// so any number of callers can wait on done.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process is reaped
	err  error         // cmd.Wait's result, valid after done
}

// children is every child process not yet reaped, so that any way out
// of the program (return, failed check, panic, signal) can kill them.
var children = struct {
	sync.Mutex
	live     map[*child]struct{}
	stopping bool   // set once by stopEverything: no child starts after it
	scratch  string // the running workload's scratch directory
}{live: map[*child]struct{}{}}

func startTracked(cmd *exec.Cmd) (*child, error) {
	c := &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	if children.stopping {
		return nil, errors.New("the benchmark is stopping")
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	children.live[c] = struct{}{}
	go func() {
		c.err = cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

// killChildren kills whatever is still running and waits until each has
// been reaped.
func killChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		_ = c.cmd.Process.Kill() // already exited is fine
		<-c.done
	}
}

// stopEverything is the signal handler's way out: no new children, the
// running ones killed and reaped, the scratch directory gone.
func stopEverything() {
	children.Lock()
	children.stopping = true
	scratch := children.scratch
	children.Unlock()
	killChildren()
	if scratch != "" {
		os.RemoveAll(scratch)
	}
}

// repoRoot finds the checkout root from either the root itself (run.sh)
// or the bench directory (go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the checkout root or from bench/")
}

// compile builds the program under test from the checkout's sources and
// returns the binary's path and how long the build took.
func compile(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, "bench", "out", "bin", "minoaner")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/minoaner")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building cmd/minoaner: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// childRun is what one run-to-completion child cost.
type childRun struct {
	wall  time.Duration // spawn to exit, stdout fully read
	first time.Duration // spawn to first stdout byte (0 if none)
	cpu   time.Duration // user+sys of the child
	rssMB float64       // peak resident set (VmHWM when output began)
	hash  uint64        // FNV-1a of stdout
	out   []byte        // stdout, when asked for
}

// runChild runs bin to completion, hashing its stdout as it arrives.
func runChild(keepOut bool, bin string, args ...string) (childRun, error) {
	var r childRun
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// A pipe of our own, not StdoutPipe: the reaper goroutine may call
	// Wait before the last byte is read.
	pr, pw, err := os.Pipe()
	if err != nil {
		return r, err
	}
	defer pr.Close()
	cmd.Stdout = pw
	start := time.Now()
	c, err := startTracked(cmd)
	pw.Close()
	if err != nil {
		return r, err
	}
	h := fnv.New64a()
	var kept bytes.Buffer
	buf := make([]byte, 64<<10)
	for {
		n, rerr := pr.Read(buf)
		if n > 0 {
			if r.first == 0 {
				r.first = time.Since(start)
				// Every stage is done once output starts, and a child
				// with more output than the pipe holds is still alive.
				r.rssMB, _ = statusMB(cmd.Process.Pid, "VmHWM:") // an exited child falls back to rusage below
			}
			h.Write(buf[:n])
			if keepOut {
				kept.Write(buf[:n])
			}
		}
		if rerr != nil {
			break // EOF, or the pipe broke and Wait reports why
		}
	}
	<-c.done
	r.wall = time.Since(start)
	if c.err != nil {
		return r, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), c.err, tail(stderr.Bytes()))
	}
	r.hash = h.Sum64()
	r.out = kept.Bytes()
	r.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && r.rssMB == 0 {
		// Only an upper bound: Linux seeds a child's Maxrss with the
		// resident set of the process that spawned it.
		r.rssMB = float64(ru.Maxrss) / 1024 // KiB
	}
	return r, nil
}

func tail(b []byte) string {
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// server is one `minoaner serve` child on a loopback port of its own.
type server struct {
	*child
	base   string
	stderr *bytes.Buffer
	spawn  time.Time
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it, which another process could win;
// the server then exits and the readiness wait reports it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawnServer starts `minoaner serve` with the given flags and returns
// without waiting for it to listen.
func spawnServer(bin string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, stderr: &bytes.Buffer{}}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	cmd.Stderr = s.stderr
	s.spawn = time.Now()
	if s.child, err = startTracked(cmd); err != nil {
		return nil, err
	}
	return s, nil
}

// readyDeadline bounds how long a server may take to answer.
const readyDeadline = 30 * time.Second

// until retries try every millisecond until it succeeds. It gives up,
// killing the server, when the server exits or the deadline passes.
func (s *server) until(try func() bool) error {
	limit := time.Now().Add(readyDeadline)
	for !try() {
		select {
		case <-s.done:
			return fmt.Errorf("server exited: %v\n%s", s.err, tail(s.stderr.Bytes()))
		default:
		}
		if time.Now().After(limit) {
			s.kill()
			return fmt.Errorf("server not ready after %v\n%s", readyDeadline, tail(s.stderr.Bytes()))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// startServer spawns a server and polls /healthz until it answers.
func startServer(bin string, args ...string) (*server, error) {
	s, err := spawnServer(bin, args...)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	err = s.until(func() bool {
		resp, err := client.Get(s.base + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// stop asks the server to shut down and kills it if it lingers.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
}

// cpu reads the server's CPU time so far: the on-CPU nanoseconds of all
// its threads from schedstat where the kernel keeps them, else the
// user+sys ticks of /proc/pid/stat, which are a hundredth of a second
// each and so too coarse to difference over one request.
func (s *server) cpu() (time.Duration, error) {
	pid := s.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)) // the pattern is well-formed
	var ns int64
	for _, task := range tasks {
		b, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		onCPU, _, _ := strings.Cut(string(b), " ")
		n, err := strconv.ParseInt(onCPU, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat line %q", b)
		}
		ns += n
	}
	if ns > 0 {
		return time.Duration(ns), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	const userHZ = 100 // on every Linux port Go supports
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// peakRSSMB reads the server's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) { return statusMB(s.cmd.Process.Pid, "VmHWM:") }

// statusMB reads one kB-valued field of a live process's /proc status.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad /proc status line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}
