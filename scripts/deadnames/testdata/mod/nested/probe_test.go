package nested

import "fix/lib"

func useFromNestedTest() { lib.TestOnly() }
