package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readReport returns the report object of a saved perfbench output.
func readReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"report":`) {
			continue
		}
		var v struct {
			Report Report `json:"report"`
		}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &v.Report, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: no report line", path)
}

// comparable refuses a pair of reports measured under different
// parallelism or sharding, or of different workloads.
func comparable(a, b *Report) error {
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d; refusing to compare", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Env.Shards != b.Env.Shards:
		return fmt.Errorf("shard count differs: %d vs %d; refusing to compare", a.Env.Shards, b.Env.Shards)
	}
	return nil
}

// compareFiles prints each metric of two saved outputs side by side,
// after checking that the runs are comparable.
func compareFiles(w io.Writer, pa, pb string) error {
	a, err := readReport(pa)
	if err != nil {
		return err
	}
	b, err := readReport(pb)
	if err != nil {
		return err
	}
	if err := comparable(a, b); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s (seed %d) vs %s (seed %d)\n", a.Workload, a.Env.Commit, a.Env.Seed, b.Env.Commit, b.Env.Seed)
	am, bm := a.Metrics, b.Metrics
	if a.Trace && b.Trace {
		am, bm = a.Layers, b.Layers
	}
	var names []string
	for n := range am {
		if _, ok := bm[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := am[n].Value, bm[n].Value
		ratio := "-"
		if x != 0 {
			ratio = fmt.Sprintf("%+.1f%%", 100*(y/x-1))
		}
		fmt.Fprintf(w, "%-32s %14.4f %14.4f %8s %s\n", n, x, y, ratio, am[n].Unit)
	}
	return nil
}
