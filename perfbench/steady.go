package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steadiness runs the workload runs times in child processes of this
// binary, with seeds 1..runs, and prints for each metric the median,
// quartiles, range and interquartile spread as a share of the median —
// the figures the bounds in BENCHMARK.json rest on.
func steadiness(workload string, runs int, seconds float64, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := 1; seed <= runs; seed++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", traceArg)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v, %d of %d operations failed", seed, res.Correct, res.Failed, res.Attempted)
		}
		for name, mv := range res.Metrics {
			values[name] = append(values[name], mv.Value)
			units[name] = mv.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs of %gs, host: %s\n", workload, runs, seconds, describeHost(".bench_build"))
	fmt.Printf("%-28s %-8s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range names {
		xs := values[name]
		q1, q3 := quartiles(xs)
		s := sortedCopy(xs)
		med := median(xs)
		fmt.Printf("%-28s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n",
			name, units[name], med, q1, q3, s[0], s[len(s)-1], (q3-q1)/med)
	}
	return nil
}
