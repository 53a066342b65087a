// Command gsight-sim is `gsight sim` under the name the benchmark harness builds.
package main

import "os"
import "gsight/internal/cli"

func main() { os.Exit(cli.Run("gsight-sim", "sim", os.Args[1:])) }
