package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Each job runs in a fresh child process (the benchmark binary re-executed
// as "spotbench child <kind> <json-args>"), so every job starts with the
// empty caches a user's invocation starts with, and its peak RSS and CPU
// time are its own.

// childRun is one finished child process as the parent measured it.
type childRun struct {
	Wall   time.Duration // spawn to exit
	CPU    time.Duration // user + system
	MaxRSS float64       // peak resident set, MB
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first, so an interrupted run leaves no process behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func rusageOf(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// spawnChild runs one child job to completion and decodes its result into
// out (when non-nil).
func spawnChild(kind string, args, out any) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	a, err := json.Marshal(args)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe, "child", kind, string(a))
	cmd.SysProcAttr = dieWithParent()
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	r := childRun{Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		r.CPU, r.MaxRSS = rusageOf(cmd.ProcessState)
	}
	if err != nil {
		return r, fmt.Errorf("child %s: %w", kind, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if out != nil {
		if err := json.Unmarshal(lines[len(lines)-1], out); err != nil {
			return r, fmt.Errorf("child %s: bad result: %w", kind, err)
		}
	}
	return r, nil
}

// childMain is the entry point of a child process.
func childMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: spotbench child <kind> <json-args>")
		return 2
	}
	var (
		res any
		err error
	)
	raw := []byte(args[1])
	switch args[0] {
	case "ready":
		res, err = childReady(raw)
	case "paper":
		res, err = childPaper(raw)
	case "sweep":
		res, err = childSweep(raw)
	case "probe":
		res, err = childProbe(raw)
	default:
		err = fmt.Errorf("unknown child kind %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotbench child:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotbench child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// readyArgs asks a child to build a workload's inputs and exit: the
// untimed preparation of the batch workloads.
type readyArgs struct {
	Workload string
	Variant  int
}

func childReady(raw []byte) (any, error) {
	var a readyArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	switch a.Workload {
	case "paper":
		if _, ok := paperRefs(a.Variant); !ok {
			return nil, fmt.Errorf("no paper reference for variant %d", a.Variant)
		}
		_ = paperOptions(a.Variant)
	case "sweep":
		if _, ok := sweepRefs(a.Variant); !ok {
			return nil, fmt.Errorf("no sweep reference for variant %d", a.Variant)
		}
		if _, err := sweepSpecs(a.Variant); err != nil {
			return nil, err
		}
	}
	return struct{}{}, nil
}

// setupBatch times the batch workloads' preparation — a child that starts,
// loads its references and builds its inputs — several times and returns
// the median in seconds.
func setupBatch(workload string, variant int) (float64, error) {
	var walls []float64
	for i := 0; i < setupTrials; i++ {
		r, err := spawnChild("ready", readyArgs{Workload: workload, Variant: variant}, nil)
		if err != nil {
			return 0, err
		}
		walls = append(walls, r.Wall.Seconds())
	}
	return median(walls), nil
}

// setupTrials is how many times a run repeats its set-up to report the
// median.
const setupTrials = 15

// variantOf maps a workload seed onto one of the recorded input variants.
func variantOf(seed int64) int {
	return int(((seed % variants) + variants) % variants)
}

// variants is the number of input variants with recorded reference
// digests. The last one, reached by any seed ≡ 7 (mod 8), is held out:
// tune on the others and check a claim on it.
const (
	variants = 8
	heldOut  = variants - 1
)
