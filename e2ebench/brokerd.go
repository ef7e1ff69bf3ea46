package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// brokerd is one running server process under test.
type brokerd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// brokerdArgs are the production-like flags every workload runs with:
// request logging on (stderr is discarded), a cache byte budget, and a
// durable group-commit job store on its own directory.
func brokerdArgs(addr, dataDir string) []string {
	return []string{
		"-addr", addr,
		"-cache-bytes", strconv.Itoa(cacheBytes),
		"-data-dir", dataDir,
		"-group-commit",
	}
}

// startBrokerd execs the server on a free loopback port.
func startBrokerd(bin, dataDir string) (*brokerd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, brokerdArgs(addr, dataDir)...)
	// Stdout and stderr stay nil: the child writes its request log to
	// the null device. The kernel kills the child if this process dies
	// first, so an interrupted run leaves no server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting brokerd: %w", err)
	}
	b := &brokerd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		b.err = cmd.Wait()
		close(b.done)
	}()
	return b, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until the server answers 200; it returns
// once recovery is done and the listener is up.
func (b *brokerd) waitReady(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-b.done:
			return fmt.Errorf("brokerd exited before it was ready: %v", b.err)
		case <-ctx.Done():
			return fmt.Errorf("brokerd not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM (a graceful drain that compacts the job journal)
// and waits for the process to end, killing it if the drain stalls.
func (b *brokerd) stop() error {
	select {
	case <-b.done:
		return nil
	default:
	}
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling brokerd: %w", err)
	}
	select {
	case <-b.done:
		return nil
	case <-time.After(30 * time.Second):
		_ = b.cmd.Process.Kill() // the drain stalled; Wait below reaps it
		<-b.done
		return errors.New("brokerd did not stop within 30s of SIGTERM; killed")
	}
}

// kill ends the process at once and waits for it; for instances whose
// state the run no longer needs, where a graceful drain would only
// spend time compacting a journal about to be deleted.
func (b *brokerd) kill() {
	_ = b.cmd.Process.Kill() // fails only if the process already ended; the wait below covers both
	<-b.done
}

// cpuTicks is the process's user+system CPU time in clock ticks, from
// fields 14 and 15 of /proc/<pid>/stat.
func (b *brokerd) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", b.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, at field 3.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += v
	}
	return ticks, nil
}

// clockTicksPerSecond is USER_HZ, fixed at 100 on Linux.
const clockTicksPerSecond = 100

// peakRSSKB is the process's resident-set high-water mark (VmHWM).
func (b *brokerd) peakRSSKB() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", b.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
