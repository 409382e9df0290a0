package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one spawned server process.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
}

// fleetSet is the running processes of one topology; base is where
// clients send traffic (the gateway, in a fleet).
type fleetSet struct {
	procs  []*proc
	base   string
	shards []string // addresses whose /metrics carry server counters
	gw     string   // gateway address, empty outside a fleet
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts the topology's prebuilt server binaries on fresh ports
// and returns once every one answers /readyz with 200, together with
// the time that took: the setup_s sample.
func spawn(binDir string, topo topology, dataDir string) (*fleetSet, time.Duration, error) {
	fs := &fleetSet{}
	var specs [][]string // name, then args
	switch topo {
	case topoSingle, topoDurable:
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args := []string{"serve", "-addr", addr}
		if topo == topoDurable {
			args = append(args, "-data-dir", dataDir,
				"-cache-entries", strconv.Itoa(durableCacheEntries), "-job-workers", "2")
		}
		specs = append(specs, args)
		fs.base, fs.shards = "http://"+addr, []string{addr}
	case topoFleet:
		a, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		b, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		g, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		peers := a + "," + b
		specs = append(specs,
			[]string{"serve", "-addr", a, "-peers", peers, "-self", a},
			[]string{"serve", "-addr", b, "-peers", peers, "-self", b},
			[]string{"gateway", "-addr", g, "-peers", peers})
		fs.base, fs.shards, fs.gw = "http://"+g, []string{a, b}, g
	}
	// One process at a time: each starts once the previous one is ready,
	// so a fleet's set-up is the sum of its processes' own set-ups rather
	// than whatever their contention for two CPUs happens to cost.
	start := time.Now()
	for _, spec := range specs {
		cmd := exec.Command(filepath.Join(binDir, spec[0]), spec[1:]...)
		cmd.Stdout, cmd.Stderr = nil, nil
		if err := cmd.Start(); err != nil {
			fs.kill()
			return nil, 0, fmt.Errorf("start %s: %w", spec[0], err)
		}
		p := &proc{name: spec[0], addr: spec[2], cmd: cmd, done: make(chan struct{})}
		go func() { cmd.Wait(); close(p.done) }()
		fs.procs = append(fs.procs, p)
		if err := waitReady(p, 30*time.Second); err != nil {
			fs.kill()
			return nil, 0, err
		}
	}
	return fs, time.Since(start), nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(p *proc, limit time.Duration) error {
	cl := &http.Client{Timeout: time.Second}
	defer cl.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s on %s exited before it was ready", p.name, p.addr)
		default:
		}
		resp, err := cl.Get("http://" + p.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%s on %s not ready within %s", p.name, p.addr, limit)
}

// kill stops every process at once and waits for each to end.
func (fs *fleetSet) kill() {
	for _, p := range fs.procs {
		p.cmd.Process.Kill()
	}
	for _, p := range fs.procs {
		<-p.done
	}
}

// stop asks every process to drain (SIGTERM), waits for each, and
// kills any that outlive the limit.
func (fs *fleetSet) stop(limit time.Duration) {
	for _, p := range fs.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	timer := time.NewTimer(limit)
	defer timer.Stop()
	for _, p := range fs.procs {
		select {
		case <-p.done:
		case <-timer.C:
			fs.kill()
			return
		}
	}
}

// procUsage is the CPU time and peak RSS of a set of processes.
type procUsage struct {
	cpu    time.Duration
	hwmKiB int64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

func (fs *fleetSet) usage() (procUsage, error) {
	var u procUsage
	for _, p := range fs.procs {
		pid := p.cmd.Process.Pid
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return u, err
		}
		// The command name may hold spaces; fields restart after ')'.
		i := bytes.LastIndexByte(stat, ')')
		if i < 0 {
			return u, errors.New("malformed /proc stat")
		}
		f := strings.Fields(string(stat[i+1:]))
		if len(f) < 13 {
			return u, errors.New("short /proc stat")
		}
		utime, err1 := strconv.ParseInt(f[11], 10, 64)
		stime, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return u, errors.New("malformed /proc stat times")
		}
		u.cpu += time.Duration(utime+stime) * clockTick
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return u, err
		}
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return u, err
				}
				u.hwmKiB += kib
			}
		}
	}
	return u, nil
}

// warm issues each distinct request once, so caches fill and lazy
// set-up finishes before timing.
func warm(ctx context.Context, base string, ops []op) error {
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, o := range ops {
		s := do(ctx, cl, base, o)
		if check(&s, o, false); s.err != "" {
			return fmt.Errorf("warm-up: %s", s.err)
		}
	}
	return nil
}
