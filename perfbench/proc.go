package main

import (
	"bufio"
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

// Proc is one crowdserve process.
type Proc struct {
	cmd  *exec.Cmd
	Base string
	Args []string
	done chan struct{}
	log  *os.File
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before crowdserve binds it; nothing else on the box races for
// loopback ports at this rate.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// StartProc execs bin with args plus a fresh -addr and waits for the
// first 200 from /healthz. It returns the time from exec to that 200.
// logPath receives the process's stdout and stderr.
func StartProc(bin string, args []string, logPath string) (*Proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	full := append(append([]string(nil), args...), "-addr", addr)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	p := &Proc{cmd: cmd, Base: "http://" + addr, Args: args, done: make(chan struct{}), log: lf}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, err
	}
	go func() { _ = cmd.Wait(); close(p.done) }()
	hc := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := t0.Add(90 * time.Second)
	for {
		select {
		case <-p.done:
			lf.Close()
			return nil, 0, fmt.Errorf("crowdserve %v exited before /healthz answered (log %s)", args, logPath)
		default:
		}
		if resp, err := hc.Get(p.Base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, 0, fmt.Errorf("crowdserve %v: /healthz not ready after 90s", args)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Kill sends SIGKILL and waits for the process to be reaped.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	p.log.Close()
}

// Stop asks for a graceful shutdown and waits; after 15s it kills.
func (p *Proc) Stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		p.log.Close()
	case <-time.After(15 * time.Second):
		p.Kill()
	}
}

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *Proc) PeakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

// CPUSeconds reads the process's user plus system CPU time. Time the
// hypervisor stole is not charged to it, so a per-operation cost stays
// comparable across busy and quiet hosts where latency does not.
func (p *Proc) CPUSeconds() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", p.cmd.Process.Pid)
	}
	return (ut + st) / clockTick, nil
}

// argValue returns the value following flag in args ("" when absent).
func argValue(args []string, flag string) string {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == flag {
			return args[i+1]
		}
	}
	return ""
}

// readCPU returns the aggregate CPU tick counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...); nil when they
// cannot be read.
func readCPU() []float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]float64, len(fields)-1)
	for i, f := range fields[1:] {
		out[i], _ = strconv.ParseFloat(f, 64)
	}
	return out
}

// stealPct is the steal share of CPU ticks between two readings. The
// total covers the first eight counters; guest time is already counted
// in user time.
func stealPct(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	total := 0.0
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return 100 * (b[7] - a[7]) / total
}
