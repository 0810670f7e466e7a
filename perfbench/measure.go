package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one op as its caller saw it: its latency and whether it
// completed and verified.
type record struct {
	lat time.Duration
	ok  bool
}

// dispenser hands out a workload's op sequence to closed-loop clients. The
// sequence is generated in seeded blocks, each holding the workload's full
// mix, and grouped into segments of whole blocks. A pass only ever stops at
// a segment boundary, so every run measures whole blocks and the mix does not
// drift with the window length; the dispenser marks the time and process CPU
// at each segment start, so a run reports medians over its segments.
type dispenser[T any] struct {
	mu    sync.Mutex
	block func(b int) []T // the ops of block b; a pure function of (seed, b)
	stop  func(segmentsDone int, elapsed time.Duration) bool
	start time.Time // when the pass began
	cur   []T       // the ops of the block being handed out
	size  int       // ops per block
	seg   int       // ops per segment
	next  int
	done  bool
	marks []mark
}

// mark is the wall clock and process CPU time at a segment boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

func newDispenser[T any](block func(b int) []T, blocksPerSegment int, stop func(segmentsDone int, elapsed time.Duration) bool) *dispenser[T] {
	first := block(0)
	return &dispenser[T]{block: block, stop: stop, cur: first, size: len(first), seg: len(first) * blocksPerSegment}
}

// take returns the next op, or ok=false once the pass is over.
func (d *dispenser[T]) take() (int, T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var zero T
	if d.done {
		return 0, zero, false
	}
	if d.next%d.seg == 0 {
		if d.stop(d.next/d.seg, time.Since(d.start)) {
			d.done = true
			return 0, zero, false
		}
		d.marks = append(d.marks, now())
	}
	i := d.next
	if i > 0 && i%d.size == 0 {
		d.cur = d.block(i / d.size)
	}
	d.next++
	return i, d.cur[i%d.size], true
}

// afterSegments stops a pass after n whole segments.
func afterSegments(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done >= n }
}

// afterTime stops a pass at the first segment boundary once d has elapsed.
func afterTime(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

// segStats summarises the verified ops of one segment.
type segStats struct {
	n             int
	p50, p90, p99 time.Duration
}

// collector gathers op latencies per segment and summarises each segment as
// soon as all its ops are in. Its memory stays bounded whatever the run
// length: the benchmark shares its process, and so its Go heap and garbage
// collector, with the servers it measures, and a heap that grew with the
// window would change their GC pacing from run to run.
type collector struct {
	mu                sync.Mutex
	seg               int // ops per segment
	open              map[int][]time.Duration
	seen              map[int]int
	free              []time.Duration
	segs              []segStats
	attempted, failed int
}

func (c *collector) add(i int, r record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	k := i / c.seg
	if _, ok := c.open[k]; !ok {
		c.open[k], c.free = c.free[:0], nil
	}
	if r.ok {
		c.open[k] = append(c.open[k], r.lat)
	} else {
		c.failed++
	}
	if c.seen[k]++; c.seen[k] == c.seg {
		c.close(k)
	}
}

func (c *collector) close(k int) {
	ls := c.open[k]
	sort.Slice(ls, func(a, b int) bool { return ls[a] < ls[b] })
	for len(c.segs) <= k {
		c.segs = append(c.segs, segStats{})
	}
	c.segs[k] = segStats{len(ls), quantile(ls, 0.50), quantile(ls, 0.90), quantile(ls, 0.99)}
	c.free = ls
	delete(c.open, k)
	delete(c.seen, k)
}

// pass is one closed-loop pass: its op counts, per-segment latency
// summaries, wall time and process CPU.
type pass struct {
	attempted, failed int
	segs              []segStats
	wall              time.Duration
	marks             []mark           // segment starts, then the pass end
	mem               runtime.MemStats // allocation and GC deltas over the pass
}

// runPass drives clients closed-loop goroutines, each taking the next op
// only after its previous one completed, until d stops; it returns once
// every client has exited.
func runPass[T any](clients int, d *dispenser[T], do func(i int, op T) record) pass {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := &collector{seg: d.seg, open: map[int][]time.Duration{}, seen: map[int]int{}}
	d.start = time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, op, ok := d.take()
				if !ok {
					return
				}
				c.add(i, do(i, op))
			}
		}()
	}
	wg.Wait()
	p := pass{wall: time.Since(d.start), marks: append(d.marks, now())}
	runtime.ReadMemStats(&after)
	p.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	p.mem.NumGC = after.NumGC - before.NumGC
	p.attempted, p.failed, p.segs = c.attempted, c.failed, c.segs
	return p
}

// p50 is the median over segments of the segment p50s.
func (p *pass) p50() time.Duration {
	var vs []time.Duration
	for _, s := range p.segs {
		vs = append(vs, s.p50)
	}
	return median(vs)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile[T int64 | time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	r := int(q*float64(len(sorted))+0.5) - 1
	r = max(0, min(r, len(sorted)-1))
	return sorted[r]
}

// median is the median of unsorted values (it sorts a copy).
func median[T int64 | time.Duration | float64](vs []T) T {
	s := append([]T(nil), vs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd computes the printed end-to-end metrics of a timed pass and the
// set-up times measured before it. Throughput, latency quantiles and CPU per
// op are each the median over the pass's segments, which keeps a burst of
// load from other processes from moving the run's figure. info receives the
// figures printed beside the metrics (sample counts, p99, error rate).
func endToEnd(p *pass, setups []time.Duration, info map[string]any) map[string]metric {
	var rate, p50, p90, p99, cpu []float64
	total := 0
	for k, s := range p.segs {
		wall := p.marks[k+1].at.Sub(p.marks[k].at)
		rate = append(rate, float64(s.n)/wall.Seconds())
		p50 = append(p50, ms(s.p50))
		p90 = append(p90, ms(s.p90))
		p99 = append(p99, ms(s.p99))
		cpu = append(cpu, ms(p.marks[k+1].cpu-p.marks[k].cpu)/float64(max(s.n, 1)))
		total += s.n
	}
	info["latency_samples"] = total
	info["segment_ops_per_s"] = rate
	info["error_rate"] = float64(p.failed) / float64(max(p.attempted, 1))
	info["window_s"] = p.wall.Seconds()
	if total/max(len(p.segs), 1) >= 1000 {
		info["latency_p99_ms"] = median(p99)
	} else {
		info["latency_p99_ms"] = "not reported: fewer than 1000 ops per segment"
	}
	return map[string]metric{
		"ops_per_s":      {median(rate), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p90_ms": {median(p90), "ms"},
		"cpu_ms_per_op":  {median(cpu), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"setup_s":        {median(setups).Seconds(), "s"},
	}
}

// runtimeMetrics reports a pass's Go allocation and GC rates per op.
func runtimeMetrics(p *pass) map[string]float64 {
	n := float64(max(p.attempted, 1))
	return map[string]float64{
		"runtime.alloc_kb_per_op": float64(p.mem.TotalAlloc) / 1024 / n,
		"runtime.gc_per_kop":      float64(p.mem.NumGC) * 1000 / n,
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// loadAvg1 is the 1-minute load average, or -1 where it cannot be read.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f, err := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	if err != nil {
		return -1
	}
	return f
}
