// Command impacc-run launches one of the bundled evaluation applications
// on a simulated system — the mpirun/aprun of the framework. Unlike
// mpirun, the user specifies nodes, not tasks: the runtime creates one
// task per accelerator automatically (paper §3.2).
//
// Examples:
//
//	impacc-run -app jacobi -system psg -n 1024 -iters 20
//	impacc-run -app dgemm -system beacon:4 -mode legacy -n 2048
//	impacc-run -app lulesh -system titan:27 -edge 16 -steps 5
//	impacc-run -app ep -system psg -class C
package main

import (
	"os"

	"impacc/internal/cli"
)

func main() {
	os.Exit(cli.Run(os.Args[1:], os.Stdout, os.Stderr))
}
