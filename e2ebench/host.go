package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// hostTicks is the machine-wide CPU time from the first line of
// /proc/stat: all of it and the part the hypervisor stole.
type hostTicks struct{ total, steal int64 }

func readHostTicks() (hostTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostTicks
	for k, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		h.total += v
		if k == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealPercent is the share of CPU time stolen since prev.
func (h hostTicks) stealPercent(prev hostTicks) float64 {
	if h.total == prev.total {
		return 0
	}
	return 100 * float64(h.steal-prev.steal) / float64(h.total-prev.total)
}

// referenceLoopMS times sorting a copy of a fixed pseudo-random slice
// of 2^17 ints into a preallocated buffer, in this process: the median
// of nine passes. The timed part allocates nothing, so it moves only
// with the speed the host lends the run to branchy general-purpose
// code (a hashing loop on dedicated instructions stays steady while
// the server slows), and runs of the same code whose figures disagree
// can be told apart as host noise or not.
func referenceLoopMS() float64 {
	r := rand.New(rand.NewSource(1))
	src := make([]int, 1<<17)
	for i := range src {
		src[i] = r.Int()
	}
	work := make([]int, len(src))
	var xs []float64
	for range 9 {
		start := time.Now()
		copy(work, src)
		slices.Sort(work)
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs)
}
