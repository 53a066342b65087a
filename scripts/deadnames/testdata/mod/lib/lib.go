// Package lib declares one name for each case the deadnames test covers.
package lib

// TestOnly is referenced only from lib_test.go.
func TestOnly() {}

// UsedByExample is referenced from examples/demo.
func UsedByExample() {}

// UsedByNested is referenced from the nested module's non-test code.
func UsedByNested() {}

// Areaer is the interface Shape.Area satisfies.
type Areaer interface{ Area() float64 }

// Shape is referenced from examples/demo.
type Shape struct{}

// Area is never called directly, only through Areaer.
func (Shape) Area() float64 { return 1 }

// Perimeter is called only from lib_test.go.
func (Shape) Perimeter() float64 { return 4 }

// Volume satisfies only an interface that lib_test.go declares.
func (Shape) Volume() float64 { return 0 }
