package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the noise mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the driver computes spreads from.
func quartiles(values []float64) (q1, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	ld := len(v)
	if ld < 2 {
		return v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(3)
}

// oneRun runs this binary once as a child process, the way the driver
// does, and parses its result line.
func oneRun(workload string, seed int64, seconds int) (resultLine, error) {
	var out resultLine
	cmd := exec.Command(os.Args[0],
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return out, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return out, nil
}

// runSelfcheck is the noise mode: every workload n times on one seed,
// the relative spread of each end-to-end metric against its bound in
// BENCHMARK.json, pages_per_op required to repeat exactly (except where
// background work reads pages), and one run on a second seed to show
// the bounds are not fitted to the first.
func runSelfcheck(seed int64, n int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("noise mode runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bad := 0
	for _, wl := range bf.Workloads {
		runs := make([]resultLine, 0, n)
		for i := 0; i < n; i++ {
			r, err := oneRun(wl.Name, seed, bf.RunSeconds)
			if err != nil {
				return err
			}
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", wl.Name, seed, r.Failed, r.Attempted)
			}
			runs = append(runs, r)
		}
		other, err := oneRun(wl.Name, seed+1, bf.RunSeconds)
		if err != nil {
			return err
		}
		if !other.Correct || other.Failed > 0 {
			return fmt.Errorf("%s seed %d: %d of %d ops failed", wl.Name, seed+1, other.Failed, other.Attempted)
		}
		fmt.Printf("%s: %d runs on seed %d, one on seed %d\n", wl.Name, n, seed, seed+1)
		fmt.Printf("  %-16s %12s %12s %12s %8s %6s  %12s %8s\n", "metric", "q1", "median", "q3", "spread", "bound", "other seed", "vs med")
		for _, m := range bf.EndToEnd {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r.Metrics[m.Name].Value
			}
			q1, q3 := quartiles(vals)
			med := median(vals)
			spread := (q3 - q1) / med
			mark := ""
			if spread > m.Bound {
				mark = "  SPREAD EXCEEDS BOUND"
				bad++
			}
			// commit_refresh's view refreshes in the background, so even
			// its counted pass is not the same work every time.
			if _, background := workloadByName(wl.Name).(*commitRefresh); m.Name == "pages_per_op" && !background {
				for _, v := range vals[1:] {
					if v != vals[0] {
						mark += "  NOT IDENTICAL ACROSS RUNS"
						bad++
						break
					}
				}
			}
			o := other.Metrics[m.Name].Value
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %12.6g %+7.2f%%%s\n",
				m.Name, q1, med, q3, 100*spread, 100*m.Bound, o, 100*(o-med)/med, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d checks failed", bad)
	}
	return nil
}
