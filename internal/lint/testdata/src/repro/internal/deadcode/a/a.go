// Package a declares one used and one unused exported name of each kind.
// Package b, its importer, holds the only references to the used ones.
package a

func UsedFunc() {}

func UnusedFunc() {} // want `func UnusedFunc is referenced by no non-test file`

type UsedType struct{ next *UsedType }

// UnusedType names itself and has a method: neither is a reference.
type UnusedType struct{ next *UnusedType } // want `type UnusedType is referenced by no non-test file`

func (u *UnusedType) Method() *UnusedType { return u.next }

var UsedVar = 1

var UnusedVar = 2 // want `var UnusedVar is referenced by no non-test file`

const UsedConst = 3

func UsedGeneric[T any](v T) T { return v }

func UnusedGeneric[T any](v T) T { return v } // want `func UnusedGeneric is referenced by no non-test file`

type UsedBox[T any] struct{ v T }

func (b UsedBox[T]) Get() T { return b.v }

const UnusedConst = 4 // want `const UnusedConst is referenced by no non-test file`

// UsedHere's only caller is in this package.
func UsedHere() int { return UsedConst }

func helper() int { return UsedHere() + Recursive(2) }

// Recursive's call to itself does not count; helper's does.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// SelfOnly calls only itself.
func SelfOnly(n int) int { // want `func SelfOnly is referenced by no non-test file`
	if n == 0 {
		return 0
	}
	return SelfOnly(n - 1)
}

// OnlyFromTest is called from a_test.go alone, which does not count.
func OnlyFromTest() {} // want `func OnlyFromTest is referenced by no non-test file`

// Asserted appears only in a compile-time interface assertion.
type Asserted struct{} // want `type Asserted is referenced by no non-test file`

func (Asserted) String() string { return "" }

var _ interface{ String() string } = Asserted{}

//lint:stayaway-ignore deadcode kept for a caller outside the module
func Suppressed() {}

// unexported names are out of scope.
func unexported() {}
