package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// historyDir holds the committed trajectory, one file per measured
// commit: NNN-<commit>.jsonl, each line one run's result as written by
// perfbench/collect.sh. Files sort in measurement order.
const historyDir = "perfbench/history"

// historyRun is one line of a history file.
type historyRun struct {
	Commit   string `json:"commit"`
	Host     string `json:"host"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]jsonMetric `json:"metrics"`
	} `json:"result"`
}

// printTrend renders, for every workload and end-to-end metric, the
// median (and interquartile range) of each commit's runs, one column per
// commit in history order.
func printTrend(w io.Writer, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("no history in %s", dir)
	}
	var commits []string
	data := map[string]map[string][]float64{} // commit -> workload/metric -> values
	incorrect := map[string]int{}
	hosts := map[string]string{}
	for _, f := range files {
		runs, err := readHistory(f)
		if err != nil {
			return err
		}
		for _, r := range runs {
			if _, ok := data[r.Commit]; !ok {
				data[r.Commit] = map[string][]float64{}
				commits = append(commits, r.Commit)
			}
			hosts[r.Commit] = r.Host
			if !r.Result.Correct {
				incorrect[r.Commit]++
			}
			for name, m := range r.Result.Metrics {
				k := r.Workload + "\t" + name
				data[r.Commit][k] = append(data[r.Commit][k], m.Value)
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-16s", "workload", "metric")
	for _, c := range commits {
		fmt.Fprintf(w, " %28s", c)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := wl.name + "\t" + d.Name
			fmt.Fprintf(w, "%-12s %-16s", wl.name, d.Name)
			for _, c := range commits {
				xs := data[c][k]
				if len(xs) == 0 {
					fmt.Fprintf(w, " %28s", "-")
					continue
				}
				fmt.Fprintf(w, " %28s", fmt.Sprintf("%.4g [%.4g-%.4g] n=%d",
					median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs)))
			}
			fmt.Fprintln(w)
		}
	}
	for _, c := range commits {
		fmt.Fprintf(w, "%s: measured on %s\n", c, hosts[c])
		if incorrect[c] > 0 {
			fmt.Fprintf(w, "%s: %d runs reported correct=false\n", c, incorrect[c])
		}
	}
	return nil
}

func readHistory(path string) ([]historyRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []historyRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r historyRun
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}
