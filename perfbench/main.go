// Command perfbench is the repository's benchmark. It stands up
// in-process clusters from the platform's public constructors on
// loopback, drives one seeded workload, checks the program's outputs,
// and prints its metrics; the last line of standard output is one JSON
// object for tooling.
//
//	go run . --workload join4 --seed 1 --seconds 10 --trace 0
//	go run . --workload monitor --seed 1 --seconds 10 --trace 1
//	go run . --workload recover --seed 1 --seconds 10 --repeat 5
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(*env) (*runOut, error){
	"join4":   runJoin4,
	"monitor": runMonitor,
	"recover": runRecover,
}

// env is what a workload run gets: its inputs' seed, how long to
// measure, where to put node data, and the tracer (nil: untraced).
type env struct {
	seed    int64
	seconds float64
	root    string
	tr      *tracer
}

func (e *env) measure() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: join4, monitor or recover")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "how long the timed part of the run lasts")
		trace    = flag.Int("trace", 0, "1: also run traced and report the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and report median and quartiles of every end-to-end metric")
		work     = flag.String("workdir", ".bench_build/work", "directory for node data; emptied at exit")
		spansOut = flag.String("spans-out", "", "traced runs: write every recorded span to this file as JSON lines")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want join4, monitor or recover)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	root, err := os.MkdirTemp(*work, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// An interrupted run still leaves no node data behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(root)
		os.Exit(1)
	}()
	code := 0
	if *repeat > 0 {
		code = repeatRuns(run, *workload, *seed, *seconds, *repeat, root)
	} else {
		code = single(run, *workload, *seed, *seconds, *trace == 1, root, *spansOut)
	}
	os.RemoveAll(root)
	os.Exit(code)
}

// single runs the workload once. Untraced, the run reports the
// end-to-end metrics. Traced, it splits its time: an untraced half, whose
// figures the traced half is compared with (trace.overhead_frac), then a
// traced half that reports the per-layer metrics.
func single(run func(*env) (*runOut, error), name string, seed int64, seconds float64, trace bool, root, spansOut string) int {
	fmt.Printf("workload %s, seed %d, %gs measured, trace %v\n%s\n", name, seed, seconds, trace, settingsLine())
	if trace {
		seconds /= 2
	}
	plain, err := run(&env{seed: seed, seconds: seconds, root: root})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	plain.print("end-to-end (untraced)")
	final := plain
	metrics := map[string]metricOut{}
	for _, m := range endToEnd {
		metrics[m.name] = metricOut{Value: plain.gate[m.name], Unit: m.unit}
	}
	if trace {
		tr := newTracer()
		traced, err := run(&env{seed: seed, seconds: seconds, root: root, tr: tr})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		traced.addOverhead(plain)
		traced.print("traced")
		traced.printLayers(name)
		if spansOut != "" {
			if err := writeSpans(spansOut, tr.snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
		metrics = map[string]metricOut{}
		for _, m := range perLayer {
			metrics[m.name] = metricOut{Value: traced.layer[m.name], Unit: m.unit}
		}
		final = &runOut{
			problems:  append(plain.problems, traced.problems...),
			attempted: plain.attempted + traced.attempted,
			failed:    plain.failed + traced.failed,
		}
	}
	for _, p := range final.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(final.problems) == 0,
		Attempted: final.attempted,
		Failed:    final.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(final.problems) > 0 {
		return 1
	}
	return 0
}

// repeatRuns runs the workload n times and prints, for every end-to-end
// metric, the median and quartiles, flagging a spread wider than the
// metric's bound.
func repeatRuns(run func(*env) (*runOut, error), name string, seed int64, seconds float64, n int, root string) int {
	fmt.Printf("workload %s, %d runs from seed %d, %.0fs measured each\n%s\n", name, n, seed, seconds, settingsLine())
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	code := 0
	for i := 0; i < n; i++ {
		out, err := run(&env{seed: seed + int64(i), seconds: seconds, root: root})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, p := range out.problems {
			fmt.Printf("run %d CHECK FAILED: %s\n", i+1, p)
			code = 1
		}
		for _, m := range out.report {
			if _, seen := units[m.name]; !seen {
				order = append(order, m.name)
				units[m.name] = m.unit
			}
			values[m.name] = append(values[m.name], m.value)
		}
		for _, m := range endToEnd {
			key := "gate:" + m.name
			if _, seen := units[key]; !seen {
				order = append(order, key)
				units[key] = m.unit
			}
			values[key] = append(values[key], out.gate[m.name])
		}
		fmt.Printf("run %d/%d done\n", i+1, n)
	}
	fmt.Printf("%-28s %8s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, k := range order {
		q1, q2, q3 := quartiles(values[k])
		b := boundOf(strings.TrimPrefix(k, "gate:"))
		flag := ""
		if sp := spread(values[k]); b > 0 && sp > b {
			flag = "  SPREAD OVER BOUND"
		}
		fmt.Printf("%-28s %8s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", k, units[k], q1, q2, q3, spread(values[k]), b, flag)
	}
	return code
}

func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		rec := struct {
			span
			StartNs int64 `json:"start_ns"`
			EndNs   int64 `json:"end_ns"`
		}{s, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
