// Package lib declares one name for each case of transitive liveness.
package lib

// Live is called from cmd/run's main.
func Live() { viaLive() }

// viaLive is referenced only from Live, a live name.
func viaLive() {}

// deadRoot is referenced by nothing.
func deadRoot() { onlyFromDead() }

// onlyFromDead is referenced only from deadRoot, a dead name.
func onlyFromDead() {}

// cycleA and cycleB reference only each other.
func cycleA() { cycleB() }

func cycleB() { cycleA() }

// Grid is a type only dead code uses.
type Grid struct{}

// Cells is called only from gridOfDead, a dead name.
func (Grid) Cells() int { return 0 }

// gridOfDead is referenced by nothing and uses Grid.
func gridOfDead() int { return Grid{}.Cells() }
