// Command perfbench is Rainbow's benchmark. It assembles a name server and
// three sites in one process, connected over loopback tcpnet and running
// QC + 2PL + 2PC with the default catalog (500 ms lock timeout), and drives
// one named workload as a closed loop of four clients: the paper's WLG
// model at a fixed multiprogramming level, each client waiting for its
// reply. Run it from the repository root:
//
//	bash perfbench/run.sh --workload uniform-rw --seed 1 --seconds 20 --trace 0
//
// One operation is one client transaction, restarted after CC and ACP
// aborts; it fails if it has not committed when its retry budget runs out.
//
// With --trace 0 the run measures one untraced window and reports the
// end-to-end metrics. With --trace 1 it splits the window into an untraced
// half and a traced half (every transaction sampled; timing wrappers on the
// WAL, the transport and the snapshot store), each on a fresh cluster, and
// reports the traced half's per-layer ledger; the goodput the halves lose
// to tracing is trace.overhead_pct. Both modes check the cluster's outputs after each
// window: every committed transaction serializes, commutative adds are
// conserved, a checkpointing workload checkpoints at every site; a traced
// run must keep the capabilities of the untraced one.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when the
// run completed and every check passed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// setups is how many times a run builds the cluster to time its set-up;
// setup_s is the median.
const setups = 11

func main() {
	name := flag.String("workload", "", "workload to run: uniform-rw, checkpoint-write, durable-write, contended-rw or hot-add")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of an untraced window; 1: per-layer ledger of a traced window")
	workdir := flag.String("workdir", os.TempDir(), "directory for the durable workload's WAL")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload and returns its result line. Output checks that
// fail make the result incorrect; an error means no result at all.
func bench(w workload, seed int64, length time.Duration, traced bool, workdir string) (result, error) {
	spec := clusterSpec{w: w, workdir: workdir}
	var setup time.Duration
	if traced {
		length /= 2
	} else {
		var err error
		if setup, err = medianSetup(spec); err != nil {
			return result{}, err
		}
	}
	plain, checkErr := run(spec, seed, length)
	if plain == nil {
		return result{}, checkErr
	}
	summarize("untraced", plain, checkErr)
	m, decls, values := plain, endToEnd, endToEndValues(plain, setup)
	if traced {
		spec.traced = true
		var err error
		if m, err = run(spec, seed, length); m == nil {
			return result{}, err
		}
		summarize("traced", m, err)
		checkErr = errors.Join(checkErr, err, fidelity(plain, m))
		decls, values = perLayer, ledgerValues(m, plain)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", checkErr)
	}
	res := result{
		Correct:   checkErr == nil,
		Attempted: m.p.ops,
		Failed:    m.p.failed,
		Metrics:   make(map[string]metric, len(decls)),
	}
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// medianSetup builds and closes the cluster several times and returns the
// median time to build it.
func medianSetup(spec clusterSpec) (time.Duration, error) {
	var times []time.Duration
	for range setups {
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		c, err := newCluster(spec)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		c.close()
	}
	slices.Sort(times)
	return times[len(times)/2], nil
}

// fidelity checks that the traced run kept every capability the wrappers
// could have switched off by hiding an optional interface.
func fidelity(plain, traced *window) error {
	var errs []error
	for _, m := range []*window{plain, traced} {
		t := m.total
		if t.PipeBatches == 0 {
			errs = append(errs, fmt.Errorf("%s run: no pipeline batches", kind(m)))
		}
		if m.net.SentBinaryBodies == 0 {
			errs = append(errs, fmt.Errorf("%s run: no binary wire bodies", kind(m)))
		}
		if m.w.checkpoint && t.Checkpoints == 0 {
			errs = append(errs, fmt.Errorf("%s run: no checkpoints", kind(m)))
		}
		if m.w.addFrac > 0 && t.CCSplits == 0 {
			errs = append(errs, fmt.Errorf("%s run: no hot-item splits", kind(m)))
		}
	}
	return errors.Join(errs...)
}

func kind(m *window) string {
	if m.probes != nil {
		return "traced"
	}
	return "untraced"
}

// summarize prints a human-readable line about a window: the sample counts
// behind its percentiles, the tail beyond the gated p95 and the machine it
// ran on.
func summarize(label string, m *window, checkErr error) {
	status := "ok"
	if checkErr != nil {
		status = "FAILED"
	}
	all := latencies(m.p.done, false)
	fmt.Printf("perfbench %s %s: %.3fs window, %d committed (%d read-only) of %d, %d restarts, %.1f tx/s, p99 %.3f ms, p99.9 %.3f ms; checks %s; GOMAXPROCS=%d nproc=%d\n",
		m.w.name, label, m.elapsed.Seconds(), len(all), len(latencies(m.p.done, true)), m.p.ops,
		m.p.restarts, m.goodput(), percentileMS(all, 0.99), percentileMS(all, 0.999),
		status, runtime.GOMAXPROCS(0), runtime.NumCPU())
}
