package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running fpvad process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been reaped
}

// startDaemon launches fpvad on an ephemeral loopback port and returns
// once it reported its address. The daemon and the fpvaworker processes
// it spawns share a process group of their own, so stop can reap them
// all.
func startDaemon(bin string, args []string, log io.Writer) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "fpvad"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fpvad: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(log, br)
		cmd.Wait()
		close(d.done)
	}()
	// "fpvad: listening on http://127.0.0.1:PORT (...)"
	const marker = "listening on "
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		d.stop()
		return nil, fmt.Errorf("fpvad did not report its address (first line %q): %v", line, err)
	}
	d.base = strings.Fields(line[i+len(marker):])[0]
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down with SIGTERM, kills it if it lingers, then
// kills whatever is left of its process group (worker processes) and
// waits until every member has exited.
func (d *daemon) stop() error {
	pid := d.pid()
	var err error
	syscall.Kill(pid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		err = errors.New("fpvad ignored SIGTERM for 10s; killed")
		syscall.Kill(-pid, syscall.SIGKILL)
		<-d.done
	}
	syscall.Kill(-pid, syscall.SIGKILL)
	for t := 0; len(groupMembers(pid)) > 0; t++ {
		if t == 500 {
			return fmt.Errorf("processes of group %d still alive after SIGKILL", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	ppid, pgrp    int
	ticks, cticks int64 // utime+stime, and cutime+cstime of reaped children
	zombie        bool
}

func readStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 15 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	n := func(i int) int64 { v, _ := strconv.ParseInt(f[i], 10, 64); return v }
	// f[0] is field 3 (state); utime..cstime are fields 14..17.
	return procStat{
		ppid: int(n(1)), pgrp: int(n(2)),
		ticks: n(11) + n(12), cticks: n(13) + n(14),
		zombie: f[0] == "Z",
	}, nil
}

// allPids lists the live process ids in /proc.
func allPids() []int {
	ents, _ := os.ReadDir("/proc")
	var out []int
	for _, e := range ents {
		if pid, err := strconv.Atoi(e.Name()); err == nil {
			out = append(out, pid)
		}
	}
	return out
}

// groupMembers lists the non-zombie processes of process group pgid.
func groupMembers(pgid int) []int {
	var out []int
	for _, pid := range allPids() {
		if st, err := readStat(pid); err == nil && st.pgrp == pgid && !st.zombie {
			out = append(out, pid)
		}
	}
	return out
}

// tree returns pid and its direct children (fpvad's fpvaworker processes).
func tree(pid int) []int {
	out := []int{pid}
	for _, p := range allPids() {
		if st, err := readStat(p); err == nil && st.ppid == pid {
			out = append(out, p)
		}
	}
	return out
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// treeCPU is the user+system CPU time of fpvad, of its live children, and
// of the children it has already reaped.
func treeCPU(pid int) time.Duration {
	var ticks int64
	for i, p := range tree(pid) {
		st, err := readStat(p)
		if err != nil {
			continue
		}
		ticks += st.ticks
		if i == 0 {
			ticks += st.cticks
		}
	}
	return time.Duration(ticks) * clockTick
}

// treeHWM sums the peak resident set (VmHWM) of fpvad and its children.
func treeHWM(pid int) (kib int64) {
	for _, p := range tree(pid) {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, _ := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
				kib += n
			}
		}
	}
	return kib
}
