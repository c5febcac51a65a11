// Command pmexperiments regenerates the paper's evaluation tables and
// figures against the Go reproduction (see EXPERIMENTS.md for recorded
// paper-vs-measured results).
//
// Usage:
//
//	pmexperiments -all
//	pmexperiments -table 2          # also prints Table 5
//	pmexperiments -table 3          # also covers Table 6
//	pmexperiments -table 4
//	pmexperiments -figure 8
//	pmexperiments -figure 9
//	pmexperiments -figure 10
//	pmexperiments -all -quick       # CI-sized budgets
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pmrace-go/pmrace/internal/experiments"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every table and figure")
		table  = flag.Int("table", 0, "table to regenerate (2, 3, 4, 5 or 6)")
		figure = flag.Int("figure", 0, "figure to regenerate (8, 9 or 10)")
		quick  = flag.Bool("quick", false, "use small CI budgets")
		csvDir = flag.String("csv", "", "also write figure data as CSV files into this directory")
	)
	flag.Parse()

	budget := experiments.Full()
	if *quick {
		budget = experiments.Quick()
	}

	ran := false
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "pmexperiments: %s: %v\n", what, err)
		os.Exit(1)
	}

	if *all || *table == 2 || *table == 3 || *table == 5 || *table == 6 {
		ran = true
		bd, err := experiments.RunBugDetection(budget)
		if err != nil {
			fail("bug detection", err)
		}
		if *all || *table == 2 {
			fmt.Println(bd.Table2())
		}
		if *all || *table == 2 || *table == 5 {
			fmt.Println(bd.Table5String())
		}
		if *all || *table == 3 || *table == 6 {
			fmt.Println(bd.Table3String())
		}
	}
	if *all || *table == 4 {
		ran = true
		res, err := experiments.RunTable4(budget)
		if err != nil {
			fail("table 4", err)
		}
		fmt.Println(res.String())
	}
	if *all || *figure == 8 {
		ran = true
		series, err := experiments.RunFigure8(budget)
		if err != nil {
			fail("figure 8", err)
		}
		fmt.Println(experiments.Figure8String(series))
		if *csvDir != "" {
			if err := experiments.Figure8CSV(*csvDir, series); err != nil {
				fail("figure 8 csv", err)
			}
		}
	}
	if *all || *figure == 9 {
		ran = true
		series, err := experiments.RunFigure9(budget)
		if err != nil {
			fail("figure 9", err)
		}
		fmt.Println(experiments.Figure9String(series))
		if *csvDir != "" {
			if err := experiments.Figure9CSV(*csvDir, series); err != nil {
				fail("figure 9 csv", err)
			}
		}
	}
	if *all || *figure == 10 {
		ran = true
		rows, err := experiments.RunFigure10(budget)
		if err != nil {
			fail("figure 10", err)
		}
		fmt.Println(experiments.Figure10String(rows))
		if *csvDir != "" {
			if err := experiments.Figure10CSV(*csvDir, rows); err != nil {
				fail("figure 10 csv", err)
			}
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
