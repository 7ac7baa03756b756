// Command impacc-bench regenerates the paper's evaluation tables and
// figures (Table 1, Figures 2 and 5-15) plus the ablation studies.
//
// Usage:
//
//	impacc-bench -list
//	impacc-bench -exp fig9
//	impacc-bench -exp fig10,fig11 -quick
//	impacc-bench -exp all -csv results/csv
//
// Each experiment runs once: its table on stdout and its -csv records come
// from the same rows, and -metrics/-prof aggregate every successful leaf run
// of the selected experiments exactly once.
package main

import (
	"os"

	"impacc/internal/cli"
)

func main() {
	os.Exit(cli.Bench(os.Args[1:], os.Stdout, os.Stderr))
}
