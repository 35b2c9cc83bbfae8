// Package b refers to package a's used names from another package.
package b

import "repro/internal/deadcode/a"

func use() (int, a.UsedType) {
	a.UsedFunc()
	_ = a.UsedGeneric[int](a.UsedBox[int]{}.Get())
	return a.UsedVar + a.UsedConst, a.UsedType{}
}

func UnusedInB() {} // want `func UnusedInB is referenced by no non-test file`
