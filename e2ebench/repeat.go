package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// repeatRuns runs the benchmark once per seed, each in a process of
// its own like a single run, and prints every metric's median,
// quartiles and spread (interquartile range over the median).
func repeatRuns(args []string, seed int64, n int, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := withoutFlags(args, "repeat", "seed")
	values := map[string][]float64{}
	units := map[string]string{}
	for i := range int64(n) {
		var out bytes.Buffer
		cmd := exec.Command(self, append(base, "-seed", strconv.FormatInt(seed+i, 10))...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed+i, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: reading the result line: %w", seed+i, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v, %d of %d ops failed", seed+i, res.Correct, res.Failed, res.Attempted)
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", seed+i, lines[len(lines)-1])
		for _, l := range lines {
			if strings.HasPrefix(l, hostLinePrefix) {
				fmt.Fprintf(stdout, "seed %d %s\n", seed+i, strings.TrimSpace(l))
			}
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-26s %6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-26s %6s %14.4f %14.4f %14.4f %8.4f\n", name, units[name], q1, q2, q3, spread)
	}
	return nil
}

// hostLinePrefix starts the line a run prints about the host's load.
const hostLinePrefix = "  host:"

// withoutFlags drops the named flags (and their values) from args.
func withoutFlags(args []string, names ...string) []string {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	var out []string
	for i := 0; i < len(args); i++ {
		name, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if drop[name] {
			if !hasValue {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}
