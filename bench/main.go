// Command bench is the repository's end-to-end benchmark: it boots in-process
// r2td in four topologies, drives each with a fixed, seed-derived request
// list from closed-loop clients, checks the outputs, and reports end-to-end
// metrics (untraced) and per-layer metrics (traced). See README.md.
//
//	go run ./bench -seed 1                                   all workloads, both passes, a report
//	go run ./bench -workload charge-storm -repeat 5 -json a.json
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload serve-mixed -seed 7 -seconds 15 -trace 0    one run, one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type nameList []string

func (l *nameList) String() string     { return strings.Join(*l, ",") }
func (l *nameList) Set(v string) error { *l = append(*l, v); return nil }

// options are the command's flags.
type options struct {
	names    nameList
	seed     int64
	seconds  float64
	trace    int
	out      string
	repeat   int
	jsonPath string
	compare  bool
}

func main() {
	var o options
	flag.Var(&o.names, "workload", "workload to run (repeatable; default all four)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: data, request list and noise derive from it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "request lists are sized to take about this long at the seed commit")
	flag.IntVar(&o.trace, "trace", -1, "single-run mode: 0 = one untraced run (end-to-end metrics), 1 = one traced run (per-layer metrics); the last line printed is one JSON object")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for data trees (removed after each run) and trace-<workload>.json files")
	flag.IntVar(&o.repeat, "repeat", 1, "report mode: runs per workload and pass; metrics are reported as median and quartiles")
	flag.StringVar(&o.jsonPath, "json", "", "report mode: also write the report to this file, for -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two report files: bench -compare a.json b.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if len(o.names) == 0 {
		for _, w := range workloads() {
			o.names = append(o.names, w.name)
		}
	}
	for _, name := range o.names {
		if workloadByName(name) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	if o.trace < 0 {
		return report(os.Stdout, o)
	}

	// Single-run mode: the driver's contract. One workload, one pass, and as
	// the last line of standard output one JSON object.
	if len(o.names) != 1 {
		return fmt.Errorf("-trace runs exactly one -workload")
	}
	res, err := runWorkload(workloadByName(o.names[0]), runConfig{
		seed: o.seed, seconds: o.seconds, scale: 1, outDir: o.out, trace: o.trace == 1, log: os.Stderr,
	})
	if err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: CHECK FAILED:", p)
	}
	if res.Digest != "" {
		fmt.Println("release_digest", res.Digest)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
