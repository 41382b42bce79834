package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// series is one metric's values over a report's repeated runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// reportFile is what -json writes and -compare reads.
type reportFile struct {
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Repeat    int                          `json:"repeat"`
	Digests   map[string]string            `json:"release_digests,omitempty"` // workload → digest
	Workloads map[string]map[string]series `json:"workloads"`                 // workload → metric → series
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them — the same arithmetic the
// driver judges spread with. It needs two values; with fewer both are NaN.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(median(values))
}

// runChild runs one workload pass in a process of its own — so heap state
// and peak_rss_mb do not leak between workloads — and parses what it prints.
func runChild(name string, o options, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-trace", strconv.Itoa(trace), "-out", o.out,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	res := &result{}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "release_digest "); ok {
			res.Digest = d
		}
	}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is not a result: %w", name, trace, err)
	}
	return res, nil
}

// report runs every named workload o.repeat times, untraced and traced, each
// in a child process, prints every metric by name with its unit, and fails
// if any run's output checks failed or a same-seed digest did not repeat.
func report(w io.Writer, o options) error {
	rf := reportFile{Seed: o.seed, Seconds: o.seconds, Repeat: o.repeat,
		Digests: map[string]string{}, Workloads: map[string]map[string]series{}}
	var problems []string
	for _, name := range o.names {
		metrics := map[string]series{}
		for rep := 0; rep < o.repeat; rep++ {
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(name, o, trace)
				if err != nil {
					return err
				}
				if !res.Correct {
					problems = append(problems, fmt.Sprintf("%s (trace %d, run %d): output checks failed, %d of %d responses wrong", name, trace, rep+1, res.Failed, res.Attempted))
				}
				if trace == 0 && res.Digest != "" {
					if prev, ok := rf.Digests[name]; ok && prev != res.Digest {
						problems = append(problems, fmt.Sprintf("%s: release_digest %s differs from the same seed's earlier %s", name, res.Digest, prev))
					}
					rf.Digests[name] = res.Digest
				}
				for m, v := range res.Metrics {
					s := metrics[m]
					s.Unit, s.Values = v.Unit, append(s.Values, v.Value)
					metrics[m] = s
				}
			}
		}
		rf.Workloads[name] = metrics
		printWorkload(w, workloadByName(name), metrics, rf.Digests[name])
	}
	if o.jsonPath != "" {
		b, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, b, 0o644); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

func printWorkload(w io.Writer, wl *workload, metrics map[string]series, digest string) {
	fmt.Fprintf(w, "\n== %s — %s\n", wl.name, wl.why)
	if digest != "" {
		fmt.Fprintf(w, "release_digest %s\n", digest)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tbetter\tbound")
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, sp := range list {
			s, ok := metrics[sp.name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(s.Values)
			bound := "-"
			if sp.bound > 0 {
				bound = fmt.Sprintf("%g%%", sp.bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%s\t%s\n", sp.name, s.Unit, median(s.Values), q1, q3, better(sp.higher), bound)
		}
	}
	tw.Flush()
}

func readReport(path string) (*reportFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareReports prints one row per (metric, workload) present in both
// reports: both medians, b's as a multiple of a's, the metric's bound, and a
// verdict — worse (b's median is worse than a's by more than the bound),
// unresolved (either side's run-to-run spread is wider than the bound, so the
// medians cannot be told apart), or ok. Per-layer metrics have no bound and
// get no verdict.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta\tb\tb / a\tbound\tverdict\n")
	worse := 0
	for _, wl := range workloads() {
		ma, mb := a.Workloads[wl.name], b.Workloads[wl.name]
		for _, list := range [][]spec{endToEnd, perLayer} {
			for _, sp := range list {
				sa, okA := ma[sp.name]
				sb, okB := mb[sp.name]
				if !okA || !okB {
					continue
				}
				medA, medB := median(sa.Values), median(sb.Values)
				bound, verdict := "-", "-"
				if sp.bound > 0 {
					bound = fmt.Sprintf("%g%%", sp.bound*100)
					verdict = judge(sp, sa.Values, sb.Values)
					if verdict == "worse" {
						worse++
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.3fx of a\t%s\t%s\n", wl.name, sp.name, sa.Unit, medA, medB, medB/medA, bound, verdict)
			}
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", worse)
	}
	return nil
}

func judge(sp spec, a, b []float64) string {
	// NaN (a single run has no quartiles) compares false: no spread known.
	if spread(a) > sp.bound || spread(b) > sp.bound {
		return "unresolved"
	}
	medA, medB := median(a), median(b)
	change := (medB - medA) / math.Abs(medA) // > 0: b is larger
	if sp.higher {
		change = -change
	}
	if change > sp.bound {
		return "worse"
	}
	return "ok"
}
