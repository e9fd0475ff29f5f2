package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runCompare is the noise check behind "two sets of runs of the same code
// agree": it runs every workload passes times, each run in a fresh process,
// reversing the workload order on every other pass, then prints each
// end-to-end metric's values, their relative spread and the bound. It
// returns non-zero if any metric's values differ by more than its bound or
// any exact count differs between passes.
func runCompare(passes int, seed uint64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("compare: %v", err)
	}
	type outcome struct {
		res    result
		counts map[string]float64
	}
	runs := map[string][]outcome{}
	for pass := 0; pass < passes; pass++ {
		order := workloadNames()
		if pass%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for _, name := range order {
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Printf("%s pass %d: %v\n%s", name, pass+1, err, out)
				return 1
			}
			var o outcome
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			var last string
			for sc.Scan() {
				last = sc.Text()
				if rest, ok := strings.CutPrefix(last, "counts "); ok {
					json.Unmarshal([]byte(rest), &o.counts)
				}
			}
			if err := json.Unmarshal([]byte(last), &o.res); err != nil {
				fmt.Printf("%s pass %d: bad result line %q: %v\n", name, pass+1, last, err)
				return 1
			}
			fmt.Printf("pass %d %-14s %s\n", pass+1, name, last)
			runs[name] = append(runs[name], o)
		}
	}
	bad := 0
	for _, name := range workloadNames() {
		for _, m := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			var vals []string
			for _, o := range runs[name] {
				v := o.res.Metrics[m.name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals = append(vals, strconv.FormatFloat(v, 'g', 6, 64))
			}
			diff := (hi - lo) / lo
			verdict := "ok"
			if !(diff <= m.bound) {
				verdict = "OVER BOUND"
				bad++
			}
			fmt.Printf("%-14s %-12s %-36s diff %5.2f%% bound %2.0f%% %s\n",
				name, m.name, strings.Join(vals, " "), diff*100, m.bound*100, verdict)
		}
		first := runs[name][0].counts
		for _, o := range runs[name][1:] {
			for k, v := range first {
				if o.counts[k] != v {
					fmt.Printf("%-14s count %s differs: %v vs %v\n", name, k, v, o.counts[k])
					bad++
				}
			}
		}
		for k, v := range first {
			fmt.Printf("%-14s count %-32s %v identical\n", name, k, v)
		}
	}
	if bad > 0 {
		fmt.Printf("compare: %d disagreements\n", bad)
		return 1
	}
	fmt.Println("compare: every pair within its bound, every count identical")
	return 0
}
