// Package nested is a nested module that calls into the root module.
package nested

import "fix/lib"

// Probe calls the root module.
func Probe() { lib.UsedByNested() }
