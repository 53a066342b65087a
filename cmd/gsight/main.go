// Command gsight is the whole tool chain in one binary: sim, serve,
// loadgen, train, workload, experiments and inspect. Run `gsight help`
// for the list and `gsight <command> -h` for a command's flags.
package main

import (
	"os"

	"gsight/internal/cli"
)

func main() { os.Exit(cli.Main(os.Args[1:])) }
