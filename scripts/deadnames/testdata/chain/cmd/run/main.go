package main

import "chain/lib"

func main() { lib.Live() }
