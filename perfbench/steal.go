package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor sometimes runs other guests
// on this guest's CPUs, and the kernel counts that time as steal in
// /proc/stat. Steal comes in episodes of seconds to minutes; at 20-30%
// it cut the closed-loop ingest rate by a quarter or more and stretched
// recovery by a fifth, with no change to the program. The CPU-bound
// figures (closed-loop ingest rate, recovery) are therefore scaled to
// the CPU time the host left this guest, second by second for the rate:
// rate / (1 - steal share), wall x (1 - steal share). In those phases
// the CPUs are nearly always busy (under 15% idle on a 2-vCPU VM), so
// the steal share is the host's doing, not the program's: a program that
// does more work per row loses rate on the CPU it gets, and one that
// waits instead of working leaves CPUs idle, and idle CPUs accrue no
// steal. The scaling undercorrects: at 20-30% steal the scaled rate
// still reads about 10% low.

// cpuTicks is one reading of the "cpu" line of /proc/stat.
type cpuTicks struct {
	steal, total uint64 // steal ticks; all ticks, user through steal
	idle         uint64 // idle and iowait ticks
	ok           bool   // false where /proc/stat cannot be read
}

func readCPU() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTicks{}
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var c cpuTicks
	for i, x := range fields[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		c.total += v
		switch i {
		case 3, 4:
			c.idle += v
		case 7:
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// cpuClock samples /proc/stat every 100 ms, so that any stretch of the
// run can be asked for its steal share afterwards.
type cpuClock struct {
	mu sync.Mutex
	at []time.Time
	cs []cpuTicks
}

// watchCPU starts the sampler; stop ends it, waits for it, and may be
// called more than once.
func watchCPU() (c *cpuClock, stop func()) {
	c = &cpuClock{}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if x := readCPU(); x.ok {
				c.mu.Lock()
				c.at, c.cs = append(c.at, time.Now()), append(c.cs, x)
				c.mu.Unlock()
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	var once sync.Once
	return c, func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// span returns the samples nearest to a and b: the last at or before a
// (else the first) and the first at or after b (else the last).
func (c *cpuClock) span(a, b time.Time) (x, y cpuTicks) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.at) == 0 {
		return
	}
	i := max(sort.Search(len(c.at), func(k int) bool { return c.at[k].After(a) })-1, 0)
	j := min(sort.Search(len(c.at), func(k int) bool { return !c.at[k].Before(b) }), len(c.at)-1)
	return c.cs[i], c.cs[j]
}

// steal is the steal share of all CPU time in [a, b); 0 where /proc/stat
// could not be read.
func (c *cpuClock) steal(a, b time.Time) float64 {
	x, y := c.span(a, b)
	if !x.ok || y.total <= x.total {
		return 0
	}
	return float64(y.steal-x.steal) / float64(y.total-x.total)
}

// idle is the idle share of all CPU time in [a, b).
func (c *cpuClock) idle(a, b time.Time) float64 {
	x, y := c.span(a, b)
	if !x.ok || y.total <= x.total {
		return 0
	}
	return float64(y.idle-x.idle) / float64(y.total-x.total)
}
