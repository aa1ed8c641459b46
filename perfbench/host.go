package main

import (
	"bufio"
	"bytes"
	"context"
	"debug/buildinfo"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Host is the fingerprint every record carries. Records whose Shape
// differs come from different hardware or builds and are not compared.
type Host struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PGO        bool   `json:"pgo"` // cmd/sweep built with a profile
	Shape      string `json:"shape"`
}

func Fingerprint(binDir string) Host {
	h := Host{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	if bi, err := buildinfo.ReadFile(filepath.Join(binDir, "sweep")); err == nil {
		h.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				h.PGO = true
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	h.Shape = fmt.Sprintf("%dx %s / %s / GOMAXPROCS=%d / pgo=%t", h.NProc, h.CPUModel, h.GoVersion, h.GOMAXPROCS, h.PGO)
	return h
}

// Proc is one finished child process.
type Proc struct {
	Wall     time.Duration
	CPU      time.Duration // user + sys, from rusage
	MaxRSSKB int64
	Stdout   []byte
	Stderr   []byte
}

// RunProc runs bin to completion and returns its output and resource use.
// A non-zero exit is an error that quotes the end of stderr.
func RunProc(ctx context.Context, bin string, args ...string) (Proc, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = dieWithParent()
	start := time.Now()
	err := cmd.Run()
	p := Proc{Wall: time.Since(start), Stdout: out.Bytes(), Stderr: errb.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			p.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			p.MaxRSSKB = ru.Maxrss
		}
	}
	if err != nil {
		tail := errb.String()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return p, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, tail)
	}
	return p, nil
}

// dieWithParent has the kernel kill a child if the benchmark dies first,
// so an interrupted run leaves no server behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// Server is a long-running child (cached, sweepd) listening on a loopback
// port of its own.
type Server struct {
	URL  string
	cmd  *exec.Cmd
	done chan error
	log  *os.File
	stop sync.Once
}

// StartServer starts bin with args plus -addr on a free loopback port and
// waits until GET health answers 200.
func StartServer(bin string, args []string, health, logPath string) (*Server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &Server{URL: "http://" + addr, cmd: cmd, done: make(chan error, 1), log: logf}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(15 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.URL + health)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err // for Stop
			s.Stop()
			return nil, fmt.Errorf("%s exited before serving (see %s): %v", filepath.Base(bin), logPath, err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("%s not healthy after 15s (see %s)", filepath.Base(bin), logPath)
		}
	}
}

// Stop sends SIGTERM, kills after ten seconds, and waits for the exit.
func (s *Server) Stop() {
	s.stop.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
	})
}

// clockTicks is USER_HZ, the unit of /proc/PID/stat times; it is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// CPU returns the server's user + sys time so far.
func (s *Server) CPU() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is [0], utime
	// [11], stime [12].
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u+st) * time.Second / clockTicks
}

// PeakRSSKB returns the server's resident-set high-water mark.
func (s *Server) PeakRSSKB() int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
