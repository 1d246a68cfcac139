package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are shared, and their speed drifts.
// On a 2-CPU cloud host the same code ran 1.3-1.7x faster for spells
// of ten to twenty seconds every minute or two, and the hypervisor took
// from 1% to 30% of a 40-s run's CPU time for other guests (steal
// time). Either moves the median of a 30-s run by more than any bound
// worth keeping, so every timing metric is reported at a fixed
// reference speed: the measured time divided by the host's speed index
// while it was measured. The raw figures are roughly the reported ones
// times the run's index, which each result records.
//
// The index comes from calibration kernels that belong to the
// benchmark, never to the program, so a faster program still reads
// faster. A sampler goroutine runs them every samplePeriod and times
// each in thread CPU time, which leaves out the time its thread waits
// for the CPU behind the program's own threads. Code reacts to the
// host's spells by how it uses the core, so there are two kernels:
// dense floating-point loops over matrices held in the L2 cache, which
// track the Kronecker and Schur work of the paper's testbenches, and
// map and sort work that branches on integers, which tracks sparse
// factorization and request handling. Each workload weighs the two
// (calibration.denseWeight). Back-to-back kernel times differ by up to
// 2x, so the kernel part of an interval's index is the trimmed mean of
// the samples taken from speedWindow before it began until it ended,
// each relative to its kernel's reference time.
//
// Thread CPU time also leaves out steal time, which the program's wall
// times include. So the sampler reads the kernel's steal and total CPU
// time counters of its CPU too (/proc/stat), and the index is the
// kernel part divided by the share of CPU time the guest kept over the
// same samples. Without those counters the index leaves steal out.
//
// The two CPUs of such a host do not run at the same speed at the same
// moment, and a sampler on one CPU says little about the other. So
// each workload runs on one CPU beside the sampler: the in-process
// workloads pin their one goroutine's thread (the runtime's background
// threads stay free), fleet-mix pins every thread of the process.

const (
	samplePeriod = 50 * time.Millisecond
	speedWindow  = 2 * time.Second
	// refDense and refScalar are the kernels' thread CPU times on a
	// calm 2-CPU host (go1.24.0). They only fix the unit, so they never
	// change.
	refDense  = 0.8 // ms
	refScalar = 0.7 // ms
	// minSpeedSamples is the least number of kernel samples an index
	// rests on; a shorter window takes the nearest samples instead.
	minSpeedSamples = 9
)

// calibration says how a workload's speed index is sampled.
type calibration struct {
	// denseWeight is the dense kernel's share of the index:
	// paper-qldae is dense linear algebra, rlc-sparse sparse LU and
	// bookkeeping, fleet-mix a mix of parsing, hashing, HTTP and small
	// dense reductions and simulations.
	denseWeight float64
	// wholeProcess pins every thread, not only the workload's own.
	wholeProcess bool
}

var calibrations = map[string]calibration{
	"paper-qldae": {denseWeight: 1},
	"rlc-sparse":  {denseWeight: 0},
	"fleet-mix":   {denseWeight: 0.5, wholeProcess: true},
}

// speedMeter samples the host's speed for the lifetime of a run.
type speedMeter struct {
	w    float64 // weight of the dense kernel
	cpu  int     // the CPU everything measured runs on
	k    *kernel
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// Per sample: when it ended, its weighted kernel time over the
	// references, and the cumulative steal and total CPU time of the
	// CPU in clock ticks (steal and total stay nil without /proc/stat).
	at           []time.Time // guarded by mu
	cost         []float64   // guarded by mu
	steal, total []uint64    // guarded by mu
}

// host is the run's meter; nil (in the self-tests) reports raw times.
var host *speedMeter

// startSpeedMeter pins the calling goroutine to its thread and the
// thread (or, for c.wholeProcess, every thread of the process) to the
// last CPU the process may use, for the rest of the run. It starts the
// sampler there and returns once minSpeedSamples samples exist, so the
// first interval timed already has an index.
func startSpeedMeter(c calibration) (*speedMeter, error) {
	cpu, err := lastCPU()
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	if c.wholeProcess {
		err = pinProcess(cpu)
	} else {
		err = pinThread(cpu)
	}
	if err != nil {
		return nil, fmt.Errorf("pinning to CPU %d: %w", cpu, err)
	}
	s := &speedMeter{w: c.denseWeight, cpu: cpu, k: newKernel(), stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go s.run(ready)
	<-ready
	return s, nil
}

// run is the sampler. Its thread ends with it (it stays locked), so its
// pinning never reaches another goroutine.
func (s *speedMeter) run(ready chan struct{}) {
	defer close(s.done)
	runtime.LockOSThread()
	pinThread(s.cpu)
	for i := 0; i < minSpeedSamples; i++ {
		s.sample()
	}
	close(ready)
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// close stops the sampler and waits for it.
func (s *speedMeter) close() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// sample runs both kernels once and records their weighted time and
// the CPU time counters.
func (s *speedMeter) sample() {
	c0 := threadCPU()
	s.k.dense()
	c1 := threadCPU()
	s.k.scalar()
	c2 := threadCPU()
	d := s.w*ms(c1-c0)/refDense + (1-s.w)*ms(c2-c1)/refScalar
	steal, total, err := cpuTimes(s.cpu)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && len(s.total) == len(s.at) {
		s.steal, s.total = append(s.steal, steal), append(s.total, total)
	}
	s.at = append(s.at, now)
	s.cost = append(s.cost, d)
}

// index returns the host's speed index over [t0, t1]: 1 at the
// reference speed, 1.5 on a host running 1.5x slower.
func (s *speedMeter) index(t0, t1 time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(t0.Add(-speedWindow)) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t1) })
	if hi-lo < minSpeedSamples {
		lo = max(0, hi-minSpeedSamples)
		hi = min(len(s.at), lo+minSpeedSamples)
	}
	return s.indexOf(lo, hi)
}

// indexOf returns the index over samples lo to hi-1.
func (s *speedMeter) indexOf(lo, hi int) float64 {
	kept := 1.0
	if len(s.total) == len(s.at) && hi-lo >= 2 {
		if dt := s.total[hi-1] - s.total[lo]; dt > 0 {
			kept = 1 - float64(s.steal[hi-1]-s.steal[lo])/float64(dt)
		}
	}
	return trimmedMean(s.cost[lo:hi]) / kept
}

// trimmedMean returns the mean of xs without its lowest and highest
// tenth.
func trimmedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 10
	return sum(s[k:len(s)-k]) / float64(len(s)-2*k)
}

// scaled returns d, measured over [t0, t0+d], at the reference speed.
func (s *speedMeter) scaled(t0 time.Time, d time.Duration) time.Duration {
	if s == nil {
		return d
	}
	return time.Duration(float64(d) / s.index(t0, t0.Add(d)))
}

// since returns the time elapsed since t0 at the reference speed.
func (s *speedMeter) since(t0 time.Time) time.Duration { return s.scaled(t0, time.Since(t0)) }

// runIndex returns the index over the whole run and the share of CPU
// time stolen in it (1 and 0 without a meter); each result records
// both.
func (s *speedMeter) runIndex() (index, stolen float64) {
	if s == nil {
		return 1, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	index = s.indexOf(0, len(s.at))
	return index, 1 - trimmedMean(s.cost)/index
}

// cpuTimes reads the steal and total time of cpu (of every CPU for -1)
// from /proc/stat, in clock ticks.
func cpuTimes(cpu int) (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	name := "cpu"
	if cpu >= 0 {
		name = "cpu" + strconv.Itoa(cpu)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != name {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest ...]:
		// guest time is already counted in user time.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return 0, 0, err
			}
			total += v
		}
		steal, _ = strconv.ParseUint(f[8], 10, 64)
		return steal, total, nil
	}
	return 0, 0, fmt.Errorf("/proc/stat has no %s line", name)
}

// kernel holds the calibration kernels' fixed inputs; they allocate
// nothing after construction.
type kernel struct {
	m        map[uint32]uint32
	src, buf []int
	a, b     []float64
	sink     float64
}

// kernelN is the order of the dense kernel's matrices: two of them
// fill most of a 256-KiB L2 cache.
const kernelN = 72

func newKernel() *kernel {
	k := &kernel{
		m:   make(map[uint32]uint32, 4096),
		src: make([]int, 2048), buf: make([]int, 2048),
		a: make([]float64, kernelN*kernelN), b: make([]float64, kernelN*kernelN),
	}
	x := uint32(7)
	for i := range k.src {
		x = x*1664525 + 1013904223
		k.src[i] = int(x >> 8)
	}
	for i := range k.a {
		k.a[i] = float64(i%13) / 13
	}
	return k
}

// dense multiplies a by itself into b.
func (k *kernel) dense() {
	const n = kernelN
	clear(k.b)
	for i := 0; i < n; i++ {
		for l := 0; l < n; l++ {
			v := k.a[i*n+l]
			for j := 0; j < n; j++ {
				k.b[i*n+j] += v * k.a[l*n+j]
			}
		}
	}
	k.sink += k.b[3]
}

// scalar toggles pseudo-random keys in a map and sorts a slice.
func (k *kernel) scalar() {
	x := uint32(99)
	for i := 0; i < 8000; i++ {
		x = x*1664525 + 1013904223
		key := x >> 20
		if v, ok := k.m[key]; ok {
			delete(k.m, key)
			k.sink += float64(v & 1)
		} else {
			k.m[key] = x
		}
	}
	copy(k.buf, k.src)
	sort.Ints(k.buf)
	k.sink += float64(k.buf[7])
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

// lastCPU returns the highest-numbered CPU the process may run on.
func lastCPU() (int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return 0, e
	}
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			return 64*w + 63 - bits.LeadingZeros64(m[w]), nil
		}
	}
	return 0, fmt.Errorf("empty CPU affinity mask")
}

// pinThread pins the calling thread to cpu.
func pinThread(cpu int) error { return setAffinity(0, cpu) }

// pinProcess pins every thread of the process to cpu. A thread started
// later inherits the mask of the thread that starts it, so the threads
// are listed again until a pass finds none unpinned.
func pinProcess(cpu int) error {
	pinned := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || pinned[tid] {
				continue
			}
			// A thread may exit before it is pinned.
			if err := setAffinity(tid, cpu); err != nil && err != syscall.ESRCH {
				return err
			}
			pinned[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}

// setAffinity pins thread tid (0: the calling thread) to cpu.
func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}
