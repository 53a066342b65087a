package lib

func useFromTest() float64 {
	TestOnly()
	return Shape{}.Perimeter()
}

type volumer interface{ Volume() float64 }

var _ volumer = Shape{}
