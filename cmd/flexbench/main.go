// Command flexbench regenerates every table and figure of "Measuring and
// Comparing Energy Flexibilities" (Valsomatzis et al., EDBT/ICDT
// Workshops 2015) and the extended experiments, printing paper-vs-
// measured comparison tables. EXPERIMENTS.md is this program's archived
// output.
//
// Usage:
//
//	flexbench              # run every experiment
//	flexbench -exp F7      # run one experiment
//	flexbench -list        # list experiment IDs
//	flexbench -check       # exit non-zero if any value mismatches the paper
//	flexbench -version     # print the build version
package main

import (
	"flag"
	"fmt"
	"os"

	"flexmeasures/internal/buildinfo"
	"flexmeasures/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a single experiment by ID (e.g. F1, T1, X2)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	check := fs.Bool("check", false, "fail when any measured value mismatches the paper")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("flexbench"))
		return nil
	}
	if *list {
		for _, id := range experiments.IDs() {
			doc, err := experiments.Describe(id)
			if err != nil {
				return err
			}
			fmt.Printf("%-7s %s\n", id, doc)
		}
		return nil
	}
	var results []*experiments.Result
	if *exp != "" {
		r, err := experiments.Run(*exp)
		if err != nil {
			return err
		}
		results = append(results, r)
	} else {
		rs, err := experiments.RunAll()
		if err != nil {
			return err
		}
		results = rs
	}
	failed := false
	for _, r := range results {
		fmt.Println(r.Render())
		if err := r.Check(); err != nil {
			failed = true
			fmt.Fprintln(os.Stderr, "MISMATCH:", err)
		}
	}
	if *check && failed {
		return fmt.Errorf("some measured values disagree with the paper")
	}
	return nil
}
