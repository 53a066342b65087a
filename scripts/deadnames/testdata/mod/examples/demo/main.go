package main

import "fix/lib"

func main() {
	lib.UsedByExample()
	var a lib.Areaer = lib.Shape{}
	_ = a
}
