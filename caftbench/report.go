package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the rows an untraced run reports on every workload; on
// schedule-scale one request is one scheduler call. BENCHMARK.json
// lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// perLayer are the rows a traced run reports. A workload that does not
// exercise a layer reports 0 with 0 samples for it.
var perLayer = []metricDef{
	{"client.mean_us", "us"},
	{"loopback.rtt_us", "us"},
	{"service.handler_us", "us"},
	{"service.decode_us", "us"},
	{"service.do_us", "us"},
	{"service.handler_other_us", "us"},
	{"service.forward_us", "us"},
	{"service.forward_ratio", "ratio"},
	{"service.forward_errors", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.misses", "count"},
	{"service.disk_hits", "count"},
	{"service.shed", "count"},
	{"service.cache_entries", "count"},
	{"service.disk_entries", "count"},
	{"service.disk_boot_ms", "ms"},
	{"gen.build_ms", "ms"},
	{"platform.build_ms", "ms"},
	{"sched.schedule_ms", "ms"},
	{"expt.reliability_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"dag.compile_ms", "ms"},
	{"sched.pass_ms", "ms"},
	{"sched.heft.append_ms", "ms"},
	{"sched.heft.insertion_ms", "ms"},
	{"sched.caft-greedy.append_ms", "ms"},
	{"sched.caft-greedy.insertion_ms", "ms"},
	{"sched.ftsa.append_ms", "ms"},
	{"sched.ftsa.insertion_ms", "ms"},
	{"sched.append_tasks_per_s", "1/s"},
	{"sched.insertion_tasks_per_s", "1/s"},
	{"sched.append_growth", "ratio"},
	{"sched.insertion_growth", "ratio"},
	{"sched.allocs_per_task", "count"},
	{"sched.validate_ms", "ms"},
	{"timeline.earliest_slot_ns.append", "ns"},
	{"timeline.earliest_slot_ns.insertion", "ns"},
	{"timeline.add_ns.append", "ns"},
	{"timeline.add_ns.insertion", "ns"},
	{"timeline.ops", "count"},
	{"sim.replayer_build_ms", "ms"},
	{"sim.replay_ms", "ms"},
	{"online.replay_ms", "ms"},
	{"proc.allocs_per_req", "count"},
	{"proc.bytes_per_req", "B"},
	{"trace_overhead", "ratio"},
}

// infoRows are printed beside the end-to-end rows but carry no bound.
var infoRows = []metricDef{
	{"fail_ratio", "ratio"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, infoRows} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("caftbench: undeclared metric " + name)
}

type row struct {
	value float64
	n     int // samples behind the value
}

// phase counts one phase's requests (scheduler calls on schedule-scale).
type phase struct {
	name                  string
	attempted, ok, failed int
}

// gate is one correctness gate's outcome.
type gate struct {
	name   string
	checks int
	err    error
}

// report is one workload run's output.
type report struct {
	workload string
	rows     map[string]row
	phases   []phase
	gates    []gate
	notes    []string
}

func newReport(workload string) *report {
	return &report{workload: workload, rows: make(map[string]row)}
}

func (r *report) set(name string, v float64, n int) {
	unitOf(name)
	r.rows[name] = row{v, n}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, g := range r.gates {
		if g.err != nil {
			return false
		}
	}
	return true
}

// timed sums the measured phases: warm-up is excluded.
func (r *report) timed() (attempted, failed int) {
	for _, p := range r.phases {
		if p.name != "warmup" {
			attempted += p.attempted
			failed += p.failed
		}
	}
	return attempted, failed
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report: run metadata, phase counts,
// gates and every row with its unit and sample count.
func (r *report) print(w io.Writer, o *options) {
	fmt.Fprintf(w, "caftbench workload=%s seed=%d trace=%t seconds=%d\n", r.workload, o.seed, o.trace, o.seconds)
	fmt.Fprintf(w, "meta nproc=%d gomaxprocs=%d clients=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), numClients(), runtime.Version(), cpuModel())
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %-8s attempted=%d ok=%d failed=%d\n", p.name, p.attempted, p.ok, p.failed)
	}
	for _, g := range r.gates {
		status := "ok"
		if g.err != nil {
			status = "FAIL: " + g.err.Error()
		}
		fmt.Fprintf(w, "gate %-14s checks=%d %s\n", g.name, g.checks, status)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	// An untraced run also prints the layer rows it measured (the
	// schedule-scale throughput and growth rows).
	defs := append(append(append([]metricDef(nil), endToEnd...), infoRows...), perLayer...)
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if rw, ok := r.rows[d.name]; ok || o.trace {
			fmt.Fprintf(w, "row %-36s %14.6g %-5s n=%d\n", d.name, rw.value, d.unit, rw.n)
		}
	}
}

// result builds the contract's JSON line: the end-to-end rows of an
// untraced run, the per-layer rows of a traced one.
func (r *report) result(traced bool) (result, error) {
	res := result{Correct: r.correct(), Metrics: make(map[string]resultValue)}
	res.Attempted, res.Failed = r.timed()
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		rw, ok := r.rows[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(rw.value) || math.IsInf(rw.value, 0) {
			return res, fmt.Errorf("workload %s: %s is %v", r.workload, d.name, rw.value)
		}
		res.Metrics[d.name] = resultValue{rw.value, d.unit}
	}
	return res, nil
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// numClients is the closed loop's client count: one per CPU.
func numClients() int { return runtime.NumCPU() }

// cpuModel names the processor, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS hands the heap's free pages back to the system and then
// resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that
// peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set since the last resetPeakRSS, or NaN
// when /proc/self/status cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
